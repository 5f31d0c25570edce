package baseline

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Spec describes one simulated system: its nodes and devices, the bundle
// that runs on it (or one per placed job), where its ranks live, and the
// sinks it records into.
type Spec struct {
	Nodes         int
	PPN           int           // ranks per node (placed jobs bring their own)
	Scheme        string        // the system that runs: a bundle name or paper label (PolicyBundle)
	Backed        bool          // payload-backed buffers (correctness runs)
	ProxiesPerDPU int           // 0 = cluster default
	Device        string        // device profile for every node ("" = the baseline part)
	Fleet         string        // per-node profile spec, device.ExpandFleet grammar (overrides Device)
	Fault         *fault.Config // deterministic fault plan (nil = no injector)
	Core          *core.Config  // framework override (optional)

	// Jobs, when set, places one MPI world per job on a shared framework
	// instead of one world over every rank; Scheme and PPN are then unused.
	Jobs []Job
	// FIFO dispatches the placed jobs' proxy work in arrival order instead
	// of by weighted fair share (the head-of-line-blocking baseline).
	FIFO bool
	// Bare gives the ranks host sites with the worlds' names and no MPI
	// world: the caller spawns its own processes.
	Bare bool

	// Metrics, Spans and Timeline attach sinks to the cluster. None of them
	// consumes virtual time (guarded bit-exactly by
	// TestMetricsLiveRegistryMatchesFig13Exactly,
	// TestSpansLiveCollectorMatchesFig13Exactly and
	// TestTimelineRecorderMatchesFig13Exactly).
	Metrics  *metrics.Registry
	Spans    *span.Collector
	Timeline *telemetry.Recorder
}

// Job is one placed job: a world of PPN ranks on every node.
type Job struct {
	Name   string // prefixes its site and process names ("<Name>.rank0") and labels its tenant series
	PPN    int
	Weight int    // proxy fair-share weight (<= 0 means 1)
	Scheme string // its bundle (PolicyBundle)
}

// System is a built simulated system with its proxies started, ready for
// the caller's processes.
type System struct {
	Spec   Spec
	Cl     *cluster.Cluster
	Worlds []*mpi.World    // one per job; none on bare sites
	Sites  []*cluster.Site // every rank's host site, by global rank
	Fw     *core.Framework // nil when no job runs on proxies
	// Engines holds one policy engine per job, nil for a fixed bundle:
	// every operation of that job runs on its bundle's own path.
	Engines []*policy.Engine

	peers   [][]int // per job: job-local rank -> global rank
	proxied []bool  // per job: its ranks offload through Fw
}

// Build constructs the system spec describes. Its ranks live in one of
// three places:
//   - one MPI world over every rank (the default);
//   - one placed world per job (Spec.Jobs): job j owns PPN_j slots on every
//     node, after the earlier jobs' slots, sees dense job-local ranks and
//     names them "<job>.rank<l>". The jobs share one framework on the
//     Proposed configuration, built even if no job offloads, so a bundle
//     that needs another (bluesmpi, staged) is refused. The framework
//     attributes proxy work to jobs (core.Tenancy), and a registry is
//     always live, so that feedback policies read the same load signals
//     whether or not the caller exports metrics;
//   - bare host sites with no world (Spec.Bare), named and placed as a
//     world's would be.
//
// Otherwise the bundle decides the substrate: a framework on its core
// configuration, and an engine when it has a policy constructor (fresh per
// system, so a learned table cannot leak between runs). Spec.Core overrides
// the configuration, and builds proxies even for a host-only bundle.
func Build(spec Spec) (*System, error) {
	placed := len(spec.Jobs) > 0
	jobs := spec.Jobs
	if !placed {
		jobs = []Job{{PPN: spec.PPN, Scheme: spec.Scheme}}
	}
	s := &System{Spec: spec, Engines: make([]*policy.Engine, len(jobs)), peers: make([][]int, len(jobs)), proxied: make([]bool, len(jobs))}
	bundles := make([]Bundle, len(jobs))
	ten := &core.Tenancy{FIFO: spec.FIFO}
	ppn := 0
	for j, job := range jobs {
		b, err := PolicyBundle(job.Scheme)
		switch {
		case err != nil:
			return nil, err
		case !placed:
		case job.Name == "" || slices.Contains(ten.Names, job.Name):
			return nil, fmt.Errorf("baseline: job %d needs a name of its own, not %q", j, job.Name)
		case job.PPN <= 0:
			return nil, fmt.Errorf("baseline: job %q has ppn %d", job.Name, job.PPN)
		case b.Core != nil && b.Core() != ProposedConfig():
			return nil, fmt.Errorf("baseline: job %q: policy %q needs core config %+v, which placed jobs cannot share", job.Name, job.Scheme, b.Core())
		}
		bundles[j], s.proxied[j] = b, b.Core != nil || spec.Core != nil
		ten.Names, ten.Weights = append(ten.Names, job.Name), append(ten.Weights, job.Weight)
		ppn += job.PPN
	}

	var ccfg cluster.Config
	switch {
	case spec.Fleet != "":
		nodes, err := device.ExpandFleet(spec.Fleet, spec.Nodes)
		if err != nil {
			return nil, err
		}
		// The cluster-wide wire parameters come from the first node's
		// profile (fabrics are a cluster property, devices a node one);
		// per-node ports and capabilities come from NodeProfiles.
		ccfg = cluster.ProfileConfig(nodes[0], spec.Nodes, ppn)
		ccfg.NodeProfiles = nodes
	case spec.Device != "":
		ccfg = cluster.ProfileConfig(spec.Device, spec.Nodes, ppn)
		ccfg.NodeProfiles = slices.Repeat([]string{spec.Device}, spec.Nodes)
	default:
		ccfg = cluster.DefaultConfig(spec.Nodes, ppn)
	}
	if ccfg.NP() <= 0 {
		return nil, fmt.Errorf("baseline: %d nodes x %d ppn place no rank", ccfg.Nodes, ccfg.PPN)
	}
	ccfg.BackedPayload = spec.Backed
	if spec.ProxiesPerDPU > 0 {
		ccfg.ProxiesPerDPU = spec.ProxiesPerDPU
	}
	ccfg.Fault, ccfg.Metrics, ccfg.Spans, ccfg.Timeline = spec.Fault, spec.Metrics, spec.Spans, spec.Timeline
	if placed && ccfg.Metrics == nil {
		ccfg.Metrics = metrics.NewRegistry()
	}

	s.Cl = cluster.New(ccfg)
	s.Sites = make([]*cluster.Site, ccfg.NP())
	ten.TenantOf = make([]int, ccfg.NP())
	off := 0
	for j, job := range jobs {
		prefix := ""
		if placed {
			prefix = job.Name + "."
		}
		nodeOf := make([]int, ccfg.Nodes*job.PPN)
		s.peers[j] = make([]int, len(nodeOf))
		for l := range nodeOf {
			node := l / job.PPN
			g := node*ccfg.PPN + off + l%job.PPN
			nodeOf[l], s.peers[j][l], ten.TenantOf[g] = node, g, j
			if spec.Bare {
				s.Sites[g] = s.Cl.NewHostSite(node, fmt.Sprintf("%srank%d", prefix, l))
			}
		}
		off += job.PPN
		if !spec.Bare {
			w := mpi.NewPlacedWorld(s.Cl, prefix, nodeOf)
			for l, g := range s.peers[j] {
				s.Sites[g] = w.Rank(l).Site()
			}
			s.Worlds = append(s.Worlds, w)
		}
		if b := bundles[j]; b.New != nil {
			s.Engines[j] = policy.NewEngineFor(b.New(), ccfg.Metrics, job.Name)
		}
	}

	fcfg := spec.Core
	if fcfg == nil && (placed || bundles[0].Core != nil) {
		c := ProposedConfig() // the one placed jobs share
		if !placed {
			c = bundles[0].Core()
		}
		fcfg = &c
	}
	if fcfg != nil {
		s.Fw = core.New(s.Cl, *fcfg, s.Sites)
		if placed {
			s.Fw.SetTenancy(ten)
		}
		s.Fw.Start()
	}
	return s, nil
}

// Host returns the framework handle of rank r of job j, bound to r's
// process and speaking the job's local ranks; nil when the job does not
// run on proxies.
func (s *System) Host(j int, r *mpi.Rank) *core.Host {
	if !s.proxied[j] {
		return nil
	}
	h := s.Fw.Host(s.peers[j][r.RankID()])
	h.Bind(r.Proc())
	h.SetPeers(s.peers[j])
	return h
}

// Run runs the simulation to completion and returns the final virtual
// time, or a deadlock as an error naming the blocked processes. On every way
// out it retires the system — proxies stopped, whatever is still
// parked unwound — so that a finished run can be collected.
func (s *System) Run() (sim.Time, error) {
	defer func() {
		if s.Fw != nil {
			s.Fw.Retire()
		} else {
			s.Cl.K.Shutdown()
		}
	}()
	end := s.Cl.K.Run()
	if dead := s.Cl.K.Deadlocked; len(dead) > 0 {
		return end, fmt.Errorf("deadlocked processes: %v", dead)
	}
	return end, nil
}
