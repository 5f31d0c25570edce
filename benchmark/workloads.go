package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/stencil"
	"repro/internal/tenant"
)

// params are the inputs a seed generates. Seed 1 is exactly the base
// parameters (the ones with pinned goldens); any other seed perturbs them
// within a range that changes what is simulated but not how many events the
// simulator has to fire, so host-time metrics stay comparable across seeds.
type params struct {
	MsgSize int // a2a-*: bytes per peer
	Edge    int // stencil-p2p-256: global cube edge
	BgSize  int // drift-feedback: bytes per background message
}

const (
	baseMsgSize = 32 << 10
	baseEdge    = 1024
	baseBgSize  = 1024
	bgOps       = 96 // messages per hop of the chatty background ring (bench.DriftCase's value)
)

// splitmix64 is the seed expander: tiny, and frozen here so the
// seed→parameters map cannot drift with the standard library.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// paramsFor maps a seed to workload parameters: message size 32 KiB ±12.5 %
// in 64 B steps, stencil edge in {960…1088 step 32}, background message
// size 1 KiB ±32 B in 16 B steps. The drift range is that narrow because the
// scenario is a feedback loop: at 960 B and below it settles into a different
// allocation pattern (5 % fewer mallocs per message), which would read as a
// host-time change where there is none.
func paramsFor(seed int64) params {
	if seed == 1 {
		return params{MsgSize: baseMsgSize, Edge: baseEdge, BgSize: baseBgSize}
	}
	x := uint64(seed)
	return params{
		MsgSize: baseMsgSize + 64*(int(splitmix64(&x)%129)-64),
		Edge:    baseEdge + 32*(int(splitmix64(&x)%5)-2),
		BgSize:  baseBgSize + 16*(int(splitmix64(&x)%5)-2),
	}
}

// sinks are the observability attachments of one run; both nil in a timed
// run.
type sinks struct {
	met *metrics.Registry
	sp  *span.Collector
}

// shape is the size of a workload: rank layout and loop counts. Tests run
// every constructor at a 2×2 shape.
type shape struct {
	Nodes, PPN, Warmup, Iters int
}

// outcome is what one simulation produced: its simulated results (virtual
// nanoseconds; they repeat exactly for a given seed) and how many per-rank
// measured iterations stand behind them.
type outcome struct {
	Virt  map[string]int64
	Iters int
}

// workload is one benchmark input. prepare is the set-up phase (everything
// up to bench.Build or the tenant config); the function it returns is the
// simulate phase.
type workload struct {
	Name    string
	Why     string
	Shape   shape
	Overall string // key of Virt reported as virt.overall_us
	Scheme  string // a2a-* only: the scheme under test
	prepare func(sh shape, p params, s sinks) func() outcome
}

var workloads = []workload{
	a2aWorkload("a2a-gvmi-256", baseline.NameProposed,
		"Proposed-scheme 256-rank Ialltoall: deep event heap, core group install/replay and its maps, pooled verbs/fabric, cross-GVMI datapath; mpi does only barriers"),
	a2aWorkload("a2a-host-256", baseline.NameIntelMPI,
		"same shape under IntelMPI: same sim pressure with core/datapath/gvmi absent; mpi rendezvous, tag matching and regcache do the work (bypass for core changes, target for mpi ones)"),
	a2aWorkload("a2a-staged-256", baseline.NameBluesMPI,
		"same shape under BluesMPI: the staging hop doubles verbs/fabric transfers per message, so a cross-GVMI gain bought at the staged path's cost shows here"),
	{
		Name:    "stencil-p2p-256",
		Why:     "256-rank 3D halo exchange through core basic send/recv plus mpi: few events per goroutine hand-off and shallow per-rank state, where a cheaper hand-off shows most and a deep-heap gain least",
		Shape:   shape{Nodes: 16, PPN: 16, Warmup: 1, Iters: 40},
		Overall: "overall_ns",
		prepare: stencilP2P,
	},
	{
		Name:    "drift-feedback",
		Why:     "5 tenants on 2 nodes, chatty 1 KiB background, one FIFO proxy per DPU, feedback policy: per-event constant costs, tenant queues, policy, metrics, pattern; heap depth and rank count do nothing",
		Shape:   shape{Nodes: 2, PPN: 2, Iters: 48},
		Overall: "post_p99_ns",
		prepare: driftFeedback,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// a2aWorkload is the ROADMAP scale shape (32 nodes × 8 PPN, 32 KiB per
// peer) under one scheme: the OMB Ialltoall overlap loop of
// bench.MeasureIalltoall, split so that bench.Build is the set-up phase and
// Env.Launch the simulate phase.
func a2aWorkload(name, scheme, why string) workload {
	w := workload{
		Name: name, Why: why, Scheme: scheme, Overall: "overall_ns",
		Shape: shape{Nodes: 32, PPN: 8, Warmup: 1, Iters: 1},
	}
	w.prepare = func(sh shape, p params, s sinks) func() outcome {
		e := bench.Build(bench.Options{
			Nodes: sh.Nodes, PPN: sh.PPN, Scheme: scheme,
			Metrics: s.met, Spans: s.sp,
		})
		return func() outcome {
			r := ombIalltoall(e, p.MsgSize, sh.Warmup, sh.Iters)
			return outcome{
				Virt:  map[string]int64{"pure_ns": int64(r.pure), "overall_ns": int64(r.overall), "overlap_milli_pct": r.overlapMilli()},
				Iters: 2 * sh.Iters * sh.Nodes * sh.PPN,
			}
		}
	}
	return w
}

type ombResult struct{ pure, overall sim.Time }

// overlapMilli is the OMB overlap percentage ×1000, rounded down, so it
// compares as an integer.
func (r ombResult) overlapMilli() int64 {
	return int64(1000 * bench.OverlapPct(r.pure, r.pure, r.overall))
}

func ombIalltoall(e *bench.Env, msgSize, warmup, iters int) ombResult {
	np := e.Cl.Cfg.NP()
	pure := make([]sim.Time, np)
	overall := make([]sim.Time, np)
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		me := r.RankID()
		send := r.Alloc(np * msgSize)
		recv := r.Alloc(np * msgSize)
		loop := func(n int, compute sim.Time) sim.Time {
			var acc sim.Time
			for it := 0; it < n; it++ {
				t0 := r.Now()
				q := ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize)
				if compute > 0 {
					r.Compute(compute)
				}
				ops.Wait(q)
				acc += r.Now() - t0
				r.Barrier()
			}
			return acc
		}
		loop(warmup, 0)
		pure[me] = loop(iters, 0) / sim.Time(iters)
		overall[me] = loop(iters, pure[me]) / sim.Time(iters)
	})
	var res ombResult
	for i := 0; i < np; i++ {
		if pure[i] > res.pure {
			res.pure = pure[i]
		}
		if overall[i] > res.overall {
			res.overall = overall[i]
		}
	}
	return res
}

// stencilP2P runs stencil.Run; it builds its own environment, so only the
// options are set-up.
func stencilP2P(sh shape, p params, s sinks) func() outcome {
	opt := bench.Options{
		Nodes: sh.Nodes, PPN: sh.PPN, Scheme: baseline.NameProposed,
		Metrics: s.met, Spans: s.sp,
	}
	return func() outcome {
		r := stencil.Run(opt, p.Edge, sh.Warmup, sh.Iters)
		return outcome{
			Virt: map[string]int64{
				"pure_ns": int64(r.Pure), "overall_ns": int64(r.Overall),
				"overlap_milli_pct": ombResult{r.Pure, r.Overall}.overlapMilli(),
			},
			Iters: 2 * sh.Iters * sh.Nodes * sh.PPN,
		}
	}
}

// driftFeedback is the bench.DriftCase shape under the feedback policy,
// with the background pattern rebuilt at the seed's message size, run
// through tenant.Run.
func driftFeedback(sh shape, p params, s sinks) func() outcome {
	cfg := bench.DriftCase(sh.Nodes, sh.PPN, sh.Iters, "feedback")
	spec := pattern.Chatty(sh.Nodes*sh.PPN, bgOps, p.BgSize)
	for i := range cfg.Jobs {
		if cfg.Jobs[i].Workload.Kind == tenant.Pattern {
			cfg.Jobs[i].Workload.Spec = spec
		}
	}
	cfg.Metrics, cfg.Spans = s.met, s.sp
	return func() outcome {
		res, err := tenant.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("benchmark: drift-feedback: %v", err))
		}
		fg := res.Job("fg")
		pre, post := bench.SplitDrift(fg.Samples, bench.DriftArrival, bench.DriftSettle)
		iters := 0
		for _, j := range res.Jobs {
			iters += len(j.Iters)
		}
		return outcome{
			Virt: map[string]int64{
				"pre_n": int64(len(pre)), "post_n": int64(len(post)),
				"pre_p50_ns":  int64(bench.Percentile(pre, 50)),
				"pre_p99_ns":  int64(bench.Percentile(pre, 99)),
				"post_p50_ns": int64(bench.Percentile(post, 50)),
				"post_p99_ns": int64(bench.Percentile(post, 99)),
				"makespan_ns": int64(res.Makespan),
			},
			Iters: iters,
		}
	}
}
