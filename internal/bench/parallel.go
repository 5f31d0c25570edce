package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/span"
)

// Parallelism is the worker count the sweep runners use. 1 (the default)
// runs every job inline on the calling goroutine — the exact code path the
// pre-parallel tree had. Values above 1 run sweep jobs on a worker pool of
// that many goroutines; cmd/offloadbench sets it from the -parallel flag.
//
// Every simulation in a sweep owns a private Kernel, so jobs share no
// simulator state; determinism is preserved because results are always
// stored by sweep index and per-job metric registries are merged back in
// ascending index order (see Sweep). Span collection forces serial
// execution: span IDs are assigned sequentially across an entire run, so
// interleaving two simulations would renumber them.
var Parallelism = 1

// DefaultParallelism returns the worker count meant by "parallel 0": one
// worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// SweepEnv is what a sweep job is given instead of the process-wide
// DefaultMetrics/DefaultSpans globals: under parallel execution Met is a
// private registry (merged into the sweep target after the join) and Sp is
// nil; under serial execution they are the sweep's own sinks. Jobs must
// route them into every environment they build — Attach does it for an
// Options value.
type SweepEnv struct {
	Met *metrics.Registry
	Sp  *span.Collector
}

// Attach returns opt with the env's sinks filled in, so a sweep job reads
//
//	r := MeasureIalltoall(env.Attach(Options{...}), size, warmup, iters)
func (env SweepEnv) Attach(opt Options) Options {
	opt.Metrics = env.Met
	opt.Spans = env.Sp
	return opt
}

// Sweep runs n independent simulation jobs — one per index — against the
// process-wide DefaultMetrics/DefaultSpans sinks. With Parallelism <= 1 (or
// with a live span collector, which needs sequential ID assignment) the
// jobs run inline in index order; otherwise they are distributed over a
// worker pool. Jobs must be independent: each builds its own environment
// (own Kernel) from the SweepEnv it receives and writes its result into a
// caller-owned slot addressed by its index, so result ordering never
// depends on completion order.
func Sweep(n int, job func(i int, env SweepEnv)) {
	SweepInto(nil, n, job)
}

// SweepInto is Sweep with an explicit metrics target, for callers that
// aggregate into their own registry (Fig13Snapshot); nil means
// DefaultMetrics.
func SweepInto(met *metrics.Registry, n int, job func(i int, env SweepEnv)) {
	if met == nil {
		met = DefaultMetrics
	}
	sp := DefaultSpans
	workers := Parallelism
	if workers > n {
		workers = n
	}
	// Spans and timelines both force serial execution: span IDs and
	// recorder labels are assigned sequentially across the whole run.
	if workers <= 1 || sp != nil || DefaultTimeline != nil {
		for i := 0; i < n; i++ {
			job(i, SweepEnv{Met: met, Sp: sp})
		}
		return
	}

	// Per-job registries keep recording race-free; merging them back in
	// ascending index order reproduces the state a single shared registry
	// reaches serially (counters/histograms are additive, Set-gauges take
	// the last writer in index order, SetMax-gauges the maximum).
	regs := make([]*metrics.Registry, n)
	if met != nil {
		for i := range regs {
			regs[i] = metrics.NewRegistry()
		}
	}

	var (
		next     int64 = -1
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					job(i, SweepEnv{Met: regs[i]})
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if met != nil {
		for i := 0; i < n; i++ {
			met.Merge(regs[i])
		}
	}
}
