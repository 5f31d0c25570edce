package bench

import (
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/span"
)

// The determinism contract of the sweep runner: the same sweep must produce
// identical results and an identical merged metrics snapshot at any worker
// count. Jobs here run real simulations (one kernel per job), the exact
// shape the figure sweeps use.
func TestSweepSerialParallelIdentical(t *testing.T) {
	t.Parallel()
	sizes := []int{1 << 10, 8 << 10, 64 << 10}
	run := func(workers int) ([]NBCResult, metrics.Snapshot) {
		env := SweepEnv{Met: metrics.NewRegistry(), Parallel: workers}
		res := make([]NBCResult, len(sizes))
		env.Sweep(len(sizes), func(i int, env SweepEnv) {
			res[i] = MeasureIalltoall(env.Attach(guardOpt()), sizes[i], 1, 2)
		})
		return res, env.Met.Snapshot()
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
	t.Parallel()
	const n = 100
	out := make([]int, n)
	SweepEnv{Parallel: 8}.Sweep(n, func(i int, _ SweepEnv) { out[i] = i + 1 })
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// Worker-pool sizing clamps to the job count: a 4-job sweep at -parallel 16
// must spin up at most 4 worker goroutines, not 16 idle ones. The jobs gate
// on each other so all clamped workers are provably alive at the sample
// point, then the goroutine census bounds the pool size. It counts every
// goroutine of the process, so it runs alone, not in parallel.
func TestSweepClampsWorkersToJobCount(t *testing.T) {
	const jobs = 4
	baseline := runtime.NumGoroutine()
	var started atomic.Int64
	release := make(chan struct{})
	sampled := make(chan int, 1)
	SweepEnv{Parallel: 16}.Sweep(jobs, func(i int, _ SweepEnv) {
		if started.Add(1) == jobs {
			// Every job is now parked inside a distinct worker; any
			// goroutine beyond baseline+jobs would be an idle worker.
			sampled <- runtime.NumGoroutine()
			close(release)
		}
		<-release
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
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("sweep swallowed the job panic")
		}
	}()
	SweepEnv{Parallel: 4}.Sweep(8, func(i int, _ SweepEnv) {
		if i == 5 {
			panic("job failure")
		}
	})
}

// Span collection assigns IDs sequentially, and recorders are labelled
// and exported in creation order, so a sweep with either sink live must fall
// back to serial execution rather than race on it: every job runs inline,
// in index order, handed the sweep's own env (a parallel job would get a
// private registry in place of env.Met).
func TestSweepWithSpansOrTimelineStaysSerial(t *testing.T) {
	t.Parallel()
	for _, env := range []SweepEnv{
		{Sp: span.New(0)},
		{Tl: new([]*metrics.Recorder)},
	} {
		env.Met, env.Parallel = metrics.NewRegistry(), 4
		var order []int
		env.Sweep(16, func(i int, jenv SweepEnv) {
			if jenv != env {
				t.Errorf("job %d ran with %+v, want the sweep's own env %+v", i, jenv, env)
			}
			order = append(order, i)
		})
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}; !slices.Equal(order, want) {
			t.Fatalf("jobs ran in order %v, want %v", order, want)
		}
	}
}
