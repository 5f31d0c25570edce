package bench

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/span"
)

// SweepEnv is everything a sweep or a figure takes from outside its own
// parameters: the sinks its runs record into, the device profile or fleet
// they run on, and the sweep's worker count. offloadbench builds one from
// its flags (CommonFlags.Env); the zero value records nothing, runs on the
// baseline part and sweeps serially.
//
// Every simulation in a sweep owns a private Kernel, so jobs share no
// simulator state; determinism is preserved because results are always
// stored by sweep index and per-job metric registries are merged back in
// ascending index order (see Sweep). Spans and time series force serial
// execution: span IDs and recorder labels are assigned sequentially across
// an entire run, so interleaving two simulations would renumber them.
type SweepEnv struct {
	Met *metrics.Registry
	Sp  *span.Collector
	// Tl, when set, collects the run's recorders: Attach appends a fresh one
	// per environment it fills, so each simulated run becomes one labelled
	// set of time series.
	Tl     *[]*metrics.Recorder
	Device string // device profile of every node ("" = the baseline part)
	Fleet  string // per-node profiles in device.ExpandFleet grammar; overrides Device
	// Parallel is the sweep worker count; 1 or less runs every job inline on
	// the calling goroutine.
	Parallel int
}

// Attach returns opt with the env's sinks and one fresh recorder filled in,
// and the env's device and fleet where opt names none, so a sweep job reads
//
//	r := MeasureIalltoall(env.Attach(Options{...}), size, warmup, iters)
//
// Each Attach feeds exactly one Build: the recorders' creation order is the
// export order of runs.
func (env SweepEnv) Attach(opt Options) Options {
	opt.Metrics = env.Met
	opt.Spans = env.Sp
	opt.Device = cmp.Or(opt.Device, env.Device)
	opt.Fleet = cmp.Or(opt.Fleet, env.Fleet)
	opt.Timeline = env.NewRecorder("")
	return opt
}

// NewRecorder appends a fresh recorder at the default bucket width to
// env.Tl and returns it, labelled label or, when that is empty, "run<N>"
// by its index; nil when env.Tl is. Creation order is the export order of
// runs, which is why a sweep with recorders runs serially.
func (env SweepEnv) NewRecorder(label string) *metrics.Recorder {
	if env.Tl == nil {
		return nil
	}
	r := metrics.NewRecorder(cmp.Or(label, fmt.Sprintf("run%d", len(*env.Tl))), metrics.DefaultWidth)
	*env.Tl = append(*env.Tl, r)
	return r
}

// Sweep runs n independent simulation jobs — one per index — against the
// env's sinks. With Parallel <= 1, a live span collector or a timeline the
// jobs run inline in index order, each handed env itself; otherwise they
// are distributed over a worker pool, and each job's env carries a private
// registry (merged into env.Met after the join) in place of env.Met. Jobs
// must be independent: each builds its own environment (own Kernel) from
// the SweepEnv it receives and writes its result into a caller-owned slot
// addressed by its index, so result ordering never depends on completion
// order.
func (env SweepEnv) Sweep(n int, job func(i int, env SweepEnv)) {
	workers := min(env.Parallel, n)
	if workers <= 1 || env.Sp != nil || env.Tl != nil {
		for i := 0; i < n; i++ {
			job(i, env)
		}
		return
	}

	// Per-job registries keep recording race-free; merging them back in
	// ascending index order reproduces the state a single shared registry
	// reaches serially (counters/histograms are additive, Set-gauges take
	// the last writer in index order, SetMax-gauges the maximum).
	regs := make([]*metrics.Registry, n)
	if env.Met != nil {
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
					jenv := env
					jenv.Met = regs[i]
					job(i, jenv)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if env.Met != nil {
		for i := 0; i < n; i++ {
			env.Met.Merge(regs[i])
		}
	}
}
