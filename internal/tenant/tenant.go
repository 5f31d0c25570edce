// Package tenant is the multi-tenant serving layer: it runs N concurrent
// jobs — each with an independent MPI world, workload and system bundle,
// with a policy engine of its own when the bundle decides per operation —
// on one shared simulated cluster, sharing fabric ports and the proxy ARM
// cores inside a single deterministic simulation. The cluster, worlds and
// framework come from baseline.Build's placed jobs.
//
// The paper evaluates one job at a time; the quantitative-offloading
// literature's core caveat is that offload only pays off while the DPU is
// not the bottleneck. This layer makes that measurable: jobs are placed
// side by side on every node (each job owns a slice of the node's rank
// slots), the shared framework attributes proxy work to tenants
// (core.Tenancy), and the figure of merit becomes aggregate goodput and
// per-tenant tail latency instead of single-job latency.
//
// Rank spaces: each job sees dense job-local MPI ranks 0..nr-1 through a
// placed world (mpi.NewPlacedWorld); the shared framework speaks global
// ranks. The per-host peer table (core.Host.SetPeers) translates at the
// API boundary, so job code is identical to single-tenant code.
package tenant

import (
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pattern"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
)

// WorkloadKind selects a job's traffic shape.
type WorkloadKind int

const (
	// Latency is a small nonblocking alltoall per iteration — the
	// latency-bound foreground traffic whose tail the crossover bench
	// watches.
	Latency WorkloadKind = iota
	// Bulk is a large nonblocking alltoall per iteration — bandwidth-bound
	// background load that keeps the shared proxies busy.
	Bulk
	// Pattern replays an explicit communication pattern (pattern.Spec)
	// through group offload.
	Pattern
)

// Workload describes what one job's ranks do.
type Workload struct {
	Kind WorkloadKind
	// Size is the per-peer payload in bytes (collectives). Defaults:
	// 8 KiB for Latency (below the adaptive policy's small-message
	// cutoff), 512 KiB for Bulk.
	Size int
	// Iters is the number of measured iterations (default 10).
	Iters int
	// Warmup iterations precede measurement (default 2; group caches warm
	// and measuring policies probe here).
	Warmup int
	// Spec is the pattern to replay (Kind == Pattern only). Jobs with more
	// ranks than the spec leave the excess idle.
	Spec *pattern.Spec
	// Compute is per-iteration overlapped host compute (Latency/Bulk):
	// each iteration issues the nonblocking alltoall, computes for this
	// long, then waits — the OMB overlap shape. This is where offload
	// pays: a DPU-progressed collective hides under the compute
	// (iteration ≈ max(compute, comm)) while host-progressed paths
	// serialize (≈ compute + comm). 0 keeps the pure-latency loop.
	Compute sim.Time
	// Start delays the job's traffic by this much virtual time: its ranks
	// sleep before their first (warmup) iteration, so the tenant arrives
	// mid-run from the other jobs' point of view. 0 starts at launch —
	// the pre-drift behaviour, bit-exact.
	Start sim.Time
}

// withDefaults fills zero fields.
func (w Workload) withDefaults() Workload {
	if w.Size <= 0 {
		if w.Kind == Bulk {
			w.Size = 512 << 10
		} else {
			w.Size = 8 << 10
		}
	}
	if w.Iters <= 0 {
		w.Iters = 10
	}
	if w.Warmup < 0 {
		w.Warmup = 0
	} else if w.Warmup == 0 {
		w.Warmup = 2
	}
	return w
}

// JobSpec is one tenant job.
type JobSpec struct {
	// Name labels the tenant in metrics, spans and results.
	Name string
	// PPN is the job's ranks per node (every job spans all nodes).
	PPN int
	// Policy names the offload-policy bundle deciding this job's paths
	// (baseline.PolicyBundle; e.g. "gvmi", "hostdirect", "adaptive").
	// Pattern jobs always run on proxies, so they refuse "hostdirect".
	Policy string
	// Weight is the job's proxy fair-share weight (<= 0 means 1).
	Weight int
	// Workload is the traffic the job runs.
	Workload Workload
	// SLO, when set, is the latency objective of this job's measured
	// iterations: per-tenant violation counters and windowed burn-rate
	// gauges land in the run's registry under the "slo" layer (see
	// sloTracker). Zero disables tracking.
	SLO sim.Time
}

// Config describes one multi-tenant run.
type Config struct {
	Nodes int
	// ProxiesPerDPU overrides the cluster default (8). Use 1 to make jobs
	// contend for a single shared ARM worker per node — the configuration
	// where fairness and the offload crossover are visible.
	ProxiesPerDPU int
	// FIFO disables weighted fair scheduling on the proxies (arrival-order
	// dispatch; the head-of-line-blocking baseline).
	FIFO bool
	Jobs []JobSpec

	// Metrics / Spans attach observability (free in virtual time).
	Metrics *metrics.Registry
	Spans   *span.Collector
	// Timeline, when non-nil, samples the run's registry into virtual-time
	// buckets (fabric goodput, proxy queue depth, per-tenant HOL wait, SLO
	// burn become time series). Like the other sinks it never consumes
	// virtual time.
	Timeline *metrics.Recorder
}

// IterSample is one measured iteration of one rank: when it completed (in
// virtual time) and how long it took. Stamped samples let benches window
// latencies around an event — the drift bench splits them at the moment
// background tenants arrive.
type IterSample struct {
	At  sim.Time
	Dur sim.Time
}

// JobResult reports one job of a run.
type JobResult struct {
	Name   string
	Policy string
	// NRanks is the job's world size (Nodes × PPN).
	NRanks int
	// Iters are the pooled per-rank per-iteration completion latencies.
	Iters []sim.Time
	// Samples are the same latencies with completion stamps, pooled
	// rank-major in iteration order (unsorted, deterministic).
	Samples []IterSample
	// P50/P99/Max summarize Iters.
	P50, P99, Max sim.Time
	// Bytes is the job's total moved payload (goodput numerator).
	Bytes int64
	// Finish is the completion time of the job's slowest rank.
	Finish sim.Time
}

// Result reports one multi-tenant run.
type Result struct {
	Jobs []JobResult
	// Makespan is the completion time of the slowest rank of any job.
	Makespan sim.Time
	// Bytes is the aggregate payload moved by all jobs.
	Bytes int64
	// Metrics is the registry the run recorded into: cfg.Metrics when one
	// was attached, otherwise a run-private registry. A registry is always
	// live so feedback policies see the same load signals (proxy
	// queue-depth gauges) whether or not the caller exports metrics —
	// recording is free in virtual time, so results are unchanged.
	Metrics *metrics.Registry
}

// GoodputGBps returns the aggregate goodput (total payload over makespan).
func (r *Result) GoodputGBps() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Bytes) / float64(r.Makespan)
}

// Job returns a job's result by name (nil if absent).
func (r *Result) Job(name string) *JobResult {
	for i := range r.Jobs {
		if r.Jobs[i].Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}

// Run executes all jobs concurrently on one shared cluster and framework
// (baseline.Build's placed jobs). Everything is deterministic: same config,
// same result, independent of host parallelism (runs share nothing — sweep
// them with bench.SweepEnv.Sweep).
func Run(cfg Config) (*Result, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("tenant: need at least one job")
	}
	jobs := make([]baseline.Job, len(cfg.Jobs))
	for j, job := range cfg.Jobs {
		if job.Workload.Kind == Pattern {
			if job.Workload.Spec == nil {
				return nil, fmt.Errorf("tenant: job %q: pattern workload without a spec", job.Name)
			}
			if nr := cfg.Nodes * job.PPN; job.Workload.Spec.NRanks > nr {
				return nil, fmt.Errorf("tenant: job %q: pattern needs %d ranks, job has %d",
					job.Name, job.Workload.Spec.NRanks, nr)
			}
			if b, err := baseline.PolicyBundle(job.Policy); err == nil && b.Core == nil {
				return nil, fmt.Errorf("tenant: job %q: policy %q needs no proxies; patterns always run on proxies", job.Name, job.Policy)
			}
		}
		jobs[j] = baseline.Job{Name: job.Name, PPN: job.PPN, Weight: job.Weight, Scheme: job.Policy}
	}
	sys, err := baseline.Build(baseline.Spec{Nodes: cfg.Nodes, Backed: true, ProxiesPerDPU: cfg.ProxiesPerDPU,
		FIFO: cfg.FIFO, Jobs: jobs, Metrics: cfg.Metrics, Spans: cfg.Spans, Timeline: cfg.Timeline})
	if err != nil {
		return nil, err
	}

	res := &Result{Jobs: make([]JobResult, len(cfg.Jobs)), Metrics: sys.Cl.Met}
	perRank := make([][][]IterSample, len(cfg.Jobs))
	finish := make([][]sim.Time, len(cfg.Jobs))
	for j, job := range cfg.Jobs {
		w := job.Workload.withDefaults()
		nr := cfg.Nodes * job.PPN
		jr := &res.Jobs[j]
		jr.Name, jr.Policy, jr.NRanks = job.Name, job.Policy, nr
		perRank[j] = make([][]IterSample, nr)
		finish[j] = make([]sim.Time, nr)
		// One tracker per job (nil when the job sets no objective): all
		// ranks' measured iterations pool into the same tenant-labelled
		// series, matching how JobResult pools Iters.
		slo := newSLOTracker(sys.Cl.Met, job.Name, job.SLO)

		sys.Worlds[j].Launch(func(r *mpi.Rank) {
			h, eng := sys.Host(j, r), sys.Engines[j]
			switch w.Kind {
			case Pattern:
				perRank[j][r.RankID()] = runPattern(r, h, eng, w, slo, jr)
			default:
				ops, _ := coll.Bind(job.Policy, r, h, eng)
				perRank[j][r.RankID()] = runAlltoall(r, ops, w, slo)
			}
			finish[j][r.RankID()] = r.Now()
		})
	}
	if _, err := sys.Run(); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}

	for j, job := range cfg.Jobs {
		w := job.Workload.withDefaults()
		jr := &res.Jobs[j]
		for _, ds := range perRank[j] {
			jr.Samples = append(jr.Samples, ds...)
			for _, s := range ds {
				jr.Iters = append(jr.Iters, s.Dur)
			}
		}
		slices.Sort(jr.Iters)
		jr.P50 = metrics.Percentile(jr.Iters, 50)
		jr.P99 = metrics.Percentile(jr.Iters, 99)
		jr.Max = metrics.Percentile(jr.Iters, 100)
		jr.Finish = slices.Max(finish[j])
		if w.Kind != Pattern {
			// Every rank sends Size to each of nr-1 peers per iteration.
			jr.Bytes = int64(w.Iters) * int64(jr.NRanks) * int64(jr.NRanks-1) * int64(w.Size)
		}
		res.Makespan = max(res.Makespan, jr.Finish)
		res.Bytes += jr.Bytes
	}
	return res, nil
}

// runAlltoall runs the Latency/Bulk workload on one rank: an optional
// arrival delay, then warmup + measured nonblocking alltoalls, returning
// the stamped per-iteration latencies.
func runAlltoall(r *mpi.Rank, ops coll.Ops, w Workload, slo *sloTracker) []IterSample {
	if w.Start > 0 {
		r.Proc().Sleep(w.Start)
	}
	np := r.Size()
	send := r.Alloc(w.Size * np)
	recv := r.Alloc(w.Size * np)
	iter := func() {
		q := ops.Ialltoall(0, send.Addr(), recv.Addr(), w.Size)
		if w.Compute > 0 {
			r.Compute(w.Compute)
		}
		ops.Wait(q)
	}
	for i := 0; i < w.Warmup; i++ {
		iter()
	}
	ds := make([]IterSample, 0, w.Iters)
	for i := 0; i < w.Iters; i++ {
		t0 := r.Now()
		iter()
		d := r.Now() - t0
		slo.observe(d)
		ds = append(ds, IterSample{At: r.Now(), Dur: d})
	}
	return ds
}

// runPattern replays the job's pattern.Spec through group offload (the
// pattern.Run execution model — pattern.Replayer — on a shared framework);
// ranks beyond the spec's size idle.
func runPattern(r *mpi.Rank, h *core.Host, eng *policy.Engine, w Workload, slo *sloTracker, jr *JobResult) []IterSample {
	spec := w.Spec
	if r.RankID() >= spec.NRanks {
		return nil
	}
	if w.Start > 0 {
		r.Proc().Sleep(w.Start)
	}
	ops := spec.RankOps(r.RankID())
	bufs := make([]*mem.Buffer, len(ops))
	maxSize := 0
	for i, op := range ops {
		if op.Type == core.OpSend || op.Type == core.OpRecv {
			bufs[i] = r.Alloc(op.Size)
		}
		if op.Size > maxSize {
			maxSize = op.Size
		}
		if op.Type == core.OpSend {
			jr.Bytes += int64(op.Size) * int64(w.Iters)
		}
	}
	rp := pattern.NewReplayer(h, eng, ops, bufs, maxSize)
	ds := make([]IterSample, 0, w.Iters)
	for c := 0; c < w.Warmup+w.Iters; c++ {
		t0 := rp.Call(0)
		if c >= w.Warmup {
			d := r.Now() - t0
			slo.observe(d)
			ds = append(ds, IterSample{At: r.Now(), Dur: d})
		}
	}
	return ds
}
