package pattern

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
)

// RunOptions configure pattern execution.
type RunOptions struct {
	Nodes   int
	PPN     int // 0 = pack all ranks on as few nodes as PPN allows
	Core    core.Config
	Compute sim.Time // overlapped compute per call on every rank
	Calls   int      // GroupCall repetitions (cache behaviour shows at >1)
	Backed  bool     // payload-backed buffers (verifies data integrity)

	// Policy names an offload-policy bundle (baseline.PolicyBundle) whose
	// policy picks the datapath per call. Run does not resolve the bundle's
	// configuration: Core must be set when Policy is — to the bundle's
	// (Bundle.Core()), with whatever edits the caller means to run — since
	// Run takes Core as given, and the zero Config runs with every cache
	// off. Patterns always run on proxies, so "hostdirect" is invalid.
	Policy string

	// Metrics / Spans attach observability to the run's cluster (both are
	// free in virtual time).
	Metrics *metrics.Registry
	Spans   *span.Collector
}

// RunResult reports one execution.
type RunResult struct {
	NRanks     int
	PerRank    []sim.Time // completion time per rank
	Last       sim.Time   // completion of the slowest rank
	Stats      core.Stats
	DataOK     bool // send/recv payload round-trips verified (Backed only)
	DataChecks int
}

// Run executes the spec on a fresh simulated cluster.
func Run(spec *Spec, opt RunOptions) (*RunResult, error) {
	if opt.Calls <= 0 {
		opt.Calls = 1
	}
	var eng *policy.Engine
	maxSize := 0 // spec-global, so every rank decides from the same size
	if opt.Policy != "" {
		bundle, err := baseline.PolicyBundle(opt.Policy)
		if err != nil {
			return nil, err
		}
		if bundle.Core == nil {
			return nil, fmt.Errorf("pattern: policy %q needs no proxies; patterns always run on proxies", opt.Policy)
		}
		eng = policy.NewEngine(bundle.Policy(), opt.Metrics)
		for _, op := range spec.Ops {
			if op.Size > maxSize {
				maxSize = op.Size
			}
		}
	}
	ppn := opt.PPN
	if ppn <= 0 {
		ppn = 8
	}
	nodes := opt.Nodes
	if nodes <= 0 {
		nodes = (spec.NRanks + ppn - 1) / ppn
	}
	ccfg := cluster.DefaultConfig(nodes, ppn)
	if ccfg.NP() < spec.NRanks {
		return nil, fmt.Errorf("pattern: %d ranks need more than %d nodes x %d ppn", spec.NRanks, nodes, ppn)
	}
	ccfg.BackedPayload = opt.Backed
	ccfg.Metrics = opt.Metrics
	ccfg.Spans = opt.Spans
	cl := cluster.New(ccfg)
	sites := make([]*cluster.Site, ccfg.NP())
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), fmt.Sprintf("rank%d", i))
	}
	fw := core.New(cl, opt.Core, sites)
	fw.Start()
	defer fw.Retire() // on every way out, so a finished run can be collected

	res := &RunResult{NRanks: spec.NRanks, PerRank: make([]sim.Time, spec.NRanks), DataOK: true}
	for r := 0; r < spec.NRanks; r++ {
		r := r
		ops := spec.RankOps(r)
		h := fw.Host(r)
		cl.K.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			h.Bind(p)
			bufs := make([]*mem.Buffer, len(ops))
			for i, op := range ops {
				switch op.Type {
				case core.OpSend:
					bufs[i] = sites[r].Space.Alloc(op.Size, opt.Backed)
					if opt.Backed {
						fillPattern(bufs[i].Bytes(), r, op.Tag)
					}
				case core.OpRecv:
					bufs[i] = sites[r].Space.Alloc(op.Size, opt.Backed)
				}
			}
			rp := NewReplayer(h, eng, ops, bufs, maxSize)
			for c := 0; c < opt.Calls; c++ {
				rp.Call(opt.Compute)
			}
			res.PerRank[r] = p.Now()
			if opt.Backed {
				for i, op := range ops {
					if op.Type != core.OpRecv {
						continue
					}
					res.DataChecks++
					if !checkPattern(bufs[i].Bytes(), op.Peer, op.Tag) {
						res.DataOK = false
					}
				}
			}
		})
	}
	cl.K.Run()
	if dead := cl.K.Deadlocked; len(dead) > 0 {
		return nil, fmt.Errorf("pattern: deadlocked processes: %v (circular barrier dependency?)", dead)
	}
	for _, t := range res.PerRank {
		if t > res.Last {
			res.Last = t
		}
	}
	res.Stats = fw.Stats()
	return res, nil
}

// fillPattern writes a (sender, tag)-derived byte pattern. Note: data
// checks only hold for specs where receives are not forwarded from other
// receives (each recv's matching send has a freshly filled buffer).
func fillPattern(b []byte, sender, tag int) {
	for i := range b {
		b[i] = byte(sender*13 + tag*7 + i)
	}
}

func checkPattern(b []byte, sender, tag int) bool {
	if b == nil {
		return true
	}
	for i := range b {
		if b[i] != byte(sender*13+tag*7+i) {
			return false
		}
	}
	return true
}
