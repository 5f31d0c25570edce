// Package bench assembles benchmark environments (cluster + MPI world +
// offload framework per scheme) and implements the OMB-style measurement
// loops used to regenerate every figure of the paper's evaluation.
package bench

import (
	"cmp"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Options describe one benchmark environment.
type Options struct {
	Nodes         int
	PPN           int
	Scheme        string          // baseline.NameProposed / NameBluesMPI / NameIntelMPI
	Policy        string          // offload-policy bundle name (overrides Scheme's backend wiring)
	Backed        bool            // payload-backed buffers (correctness runs)
	ProxiesPerDPU int             // 0 = cluster default
	Device        string          // device profile for every node ("" = the baseline part)
	Fleet         string          // per-node profile spec, device.ExpandFleet grammar (overrides Device)
	Cluster       *cluster.Config // full override (optional)
	Core          *core.Config    // framework override (optional)

	// Metrics attaches a registry to the environment's cluster. Metrics
	// never consume virtual time, so results are unchanged (guarded
	// bit-exactly by TestMetricsLiveRegistryMatchesFig13Exactly).
	Metrics *metrics.Registry

	// Spans attaches a span collector to the environment's cluster. Like
	// metrics, span collection never consumes virtual time (guarded
	// bit-exactly by TestSpansLiveCollectorMatchesFig13Exactly).
	Spans *span.Collector

	// Timeline attaches a telemetry recorder to the environment's cluster,
	// sampling the metrics registry into virtual-time buckets. Recording
	// never consumes virtual time (guarded bit-exactly by
	// TestTimelineRecorderMatchesFig13Exactly).
	Timeline *telemetry.Recorder
}

// Env is a ready-to-launch benchmark environment.
type Env struct {
	Opt Options
	Cl  *cluster.Cluster
	W   *mpi.World
	Fw  *core.Framework // nil for host-only schemes
	Pol *policy.Engine  // nil unless Options.Policy named a bundle
}

// needsFramework reports whether the scheme runs on DPU proxies.
func needsFramework(scheme string) bool {
	return scheme == baseline.NameProposed || scheme == baseline.NameBluesMPI
}

// CheckScheme rejects a scheme name Build does not know.
func CheckScheme(name string) error {
	if !needsFramework(name) && name != baseline.NameIntelMPI {
		return fmt.Errorf("unknown scheme %q (have Proposed|BluesMPI|IntelMPI)", name)
	}
	return nil
}

// Build constructs the environment. Options.Policy, when set, decides the
// backends; otherwise Options.Scheme must be one of the three schemes.
func Build(opt Options) *Env {
	if err := CheckScheme(opt.Scheme); err != nil && opt.Policy == "" {
		panic("bench: " + err.Error())
	}
	var ccfg cluster.Config
	switch {
	case opt.Cluster != nil:
		ccfg = *opt.Cluster
	case opt.Fleet != "":
		names, err := device.ExpandFleet(opt.Fleet, opt.Nodes)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		// The cluster-wide wire parameters come from the first node's
		// profile (fabrics are a cluster property, devices a node one);
		// per-node ports and capabilities come from NodeProfiles.
		ccfg = cluster.ProfileConfig(names[0], opt.Nodes, opt.PPN)
		ccfg.NodeProfiles = names
	case opt.Device != "":
		ccfg = cluster.ProfileConfig(opt.Device, opt.Nodes, opt.PPN)
		names := make([]string, opt.Nodes)
		for i := range names {
			names[i] = opt.Device
		}
		ccfg.NodeProfiles = names
	default:
		ccfg = cluster.DefaultConfig(opt.Nodes, opt.PPN)
	}
	ccfg.BackedPayload = opt.Backed
	if opt.ProxiesPerDPU > 0 {
		ccfg.ProxiesPerDPU = opt.ProxiesPerDPU
	}
	// A full cluster override keeps the sinks it carries.
	ccfg.Metrics = cmp.Or(ccfg.Metrics, opt.Metrics)
	ccfg.Spans = cmp.Or(ccfg.Spans, opt.Spans)
	ccfg.Timeline = cmp.Or(ccfg.Timeline, opt.Timeline)
	cl := cluster.New(ccfg)
	w := mpi.NewWorld(cl, mpi.DefaultConfig())
	e := &Env{Opt: opt, Cl: cl, W: w}

	var bundle baseline.Bundle
	if opt.Policy != "" {
		var err error
		bundle, err = baseline.PolicyBundle(opt.Policy)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		// A fresh policy instance per environment: measuring policies must
		// not carry learned tables across runs.
		e.Pol = policy.NewEngine(bundle.New(), ccfg.Metrics)
	}

	wantFw := needsFramework(opt.Scheme) || opt.Core != nil
	if opt.Policy != "" {
		// The bundle decides the substrate; an explicit Core override still
		// wins on configuration.
		wantFw = bundle.Framework || opt.Core != nil
	}
	if wantFw {
		var fcfg core.Config
		switch {
		case opt.Core != nil:
			fcfg = *opt.Core
		case opt.Policy != "":
			fcfg = bundle.Core()
		case opt.Scheme == baseline.NameBluesMPI:
			fcfg = baseline.BluesMPIConfig()
		default:
			fcfg = baseline.ProposedConfig()
		}
		sites := make([]*cluster.Site, ccfg.NP())
		for i := range sites {
			sites[i] = w.Rank(i).Site()
		}
		e.Fw = core.New(cl, fcfg, sites)
		e.Fw.Start()
	}
	return e
}

// backendName labels the backends an environment binds: the policy name
// when one is active, the scheme otherwise.
func (e *Env) backendName() string {
	if e.Opt.Policy != "" {
		return e.Opt.Policy
	}
	return e.Opt.Scheme
}

// Launch spawns all ranks running fn with the scheme's collective and
// point-to-point backends bound, then runs the simulation to completion.
// It returns the final virtual time and panics on deadlock (a bug).
func (e *Env) Launch(fn func(r *mpi.Rank, ops coll.Ops, p2p coll.P2P)) sim.Time {
	e.W.Launch(func(r *mpi.Rank) {
		name := e.backendName()
		var ops coll.Ops
		var p2p coll.P2P
		switch {
		case e.Fw != nil && e.Pol != nil:
			h := e.Fw.Host(r.RankID())
			h.Bind(r.Proc())
			ops = coll.NewPolicyOps(name, r, h, e.Pol)
			p2p = coll.NewPolicyP2P(name, r, h, e.Pol)
		case e.Fw != nil:
			h := e.Fw.Host(r.RankID())
			h.Bind(r.Proc())
			ops = coll.NewOffloadOps(name, r, h)
			p2p = coll.NewOffloadP2P(name, r, h)
		default:
			ops = coll.NewHostOps(name, r)
			p2p = coll.NewHostP2P(name, r)
		}
		fn(r, ops, p2p)
	})
	end := e.Cl.K.Run()
	if dead := e.Cl.K.Deadlocked; len(dead) > 0 {
		panic(fmt.Sprintf("bench: deadlocked processes: %v", dead))
	}
	// Retire the environment so it can be collected (benchmark sweeps build
	// many in one process): stop the proxy daemons and unwind whatever is
	// still parked on the kernel. Host-only environments have no framework,
	// only the kernel to shut down.
	if e.Fw != nil {
		e.Fw.Retire()
	} else {
		e.Cl.K.Shutdown()
	}
	return end
}
