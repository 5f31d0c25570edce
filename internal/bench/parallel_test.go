package bench

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/span"
)

// withParallelism runs fn with the package-level worker count overridden,
// restoring the previous value (tests share the global like offloadbench
// does).
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Parallelism
	Parallelism = n
	defer func() { Parallelism = prev }()
	fn()
}

// The determinism contract of the sweep runner: the same sweep must produce
// identical results and an identical merged metrics snapshot at any worker
// count. Jobs here run real simulations (one kernel per job), the exact
// shape the figure sweeps use.
func TestSweepSerialParallelIdentical(t *testing.T) {
	sizes := []int{1 << 10, 8 << 10, 64 << 10}
	run := func(workers int) ([]NBCResult, metrics.Snapshot) {
		met := metrics.NewRegistry()
		res := make([]NBCResult, len(sizes))
		withParallelism(t, workers, func() {
			SweepInto(met, len(sizes), func(i int, env SweepEnv) {
				opt := env.Attach(guardOpt())
				res[i] = MeasureIalltoall(opt, sizes[i], 1, 2)
			})
		})
		return res, met.Snapshot()
	}

	serialRes, serialMet := run(1)
	parallelRes, parallelMet := run(4)

	if !reflect.DeepEqual(serialRes, parallelRes) {
		t.Fatalf("results diverge between serial and parallel sweeps:\nserial:   %+v\nparallel: %+v",
			serialRes, parallelRes)
	}
	if !reflect.DeepEqual(serialMet, parallelMet) {
		t.Fatal("merged metrics snapshot diverges between serial and parallel sweeps")
	}
}

// Results land at their sweep index regardless of completion order, and
// every job runs exactly once.
func TestSweepIndexOrdering(t *testing.T) {
	const n = 100
	out := make([]int, n)
	withParallelism(t, 8, func() {
		Sweep(n, func(i int, _ SweepEnv) { out[i] = i + 1 })
	})
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// Worker-pool sizing clamps to the job count: a 4-job sweep at -parallel 16
// must spin up at most 4 worker goroutines, not 16 idle ones. The jobs gate
// on each other so all clamped workers are provably alive at the sample
// point, then the goroutine census bounds the pool size.
func TestSweepClampsWorkersToJobCount(t *testing.T) {
	const jobs = 4
	baseline := runtime.NumGoroutine()
	var started atomic.Int64
	release := make(chan struct{})
	sampled := make(chan int, 1)
	withParallelism(t, 16, func() {
		Sweep(jobs, func(i int, _ SweepEnv) {
			if started.Add(1) == jobs {
				// Every job is now parked inside a distinct worker; any
				// goroutine beyond baseline+jobs would be an idle worker.
				sampled <- runtime.NumGoroutine()
				close(release)
			}
			<-release
		})
	})
	extra := <-sampled - baseline
	if extra > jobs {
		t.Fatalf("sweep of %d jobs ran %d extra goroutines; want at most %d (workers must clamp to the job count)",
			jobs, extra, jobs)
	}
}

// A panicking job must surface after the sweep drains, not crash a worker
// goroutine (which would abort the whole test binary).
func TestSweepPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sweep swallowed the job panic")
		}
	}()
	withParallelism(t, 4, func() {
		Sweep(8, func(i int, _ SweepEnv) {
			if i == 5 {
				panic("job failure")
			}
		})
	})
}

// Span collection assigns IDs sequentially, so a sweep with a live span
// collector must fall back to serial execution rather than race on it.
func TestSweepWithSpansStaysSerial(t *testing.T) {
	prev := DefaultSpans
	DefaultSpans = span.New(0)
	defer func() { DefaultSpans = prev }()
	// The guard tests in spans_guard_test.go pin span determinism; here it is
	// enough that the sweep under a collector still visits every index once.
	seen := make([]bool, 16)
	withParallelism(t, 4, func() {
		Sweep(len(seen), func(i int, _ SweepEnv) { seen[i] = true })
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("job %d never ran", i)
		}
	}
}
