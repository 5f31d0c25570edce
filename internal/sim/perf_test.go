package sim

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// The zero-alloc contract of the event core: once the arena and free list have
// grown to the run's high-water mark, scheduling and firing events performs
// no allocation at all.

func TestAtSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the arena and free list.
	for i := 0; i < 8; i++ {
		k.At(Time(i), fn)
	}
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.At(1, fn)
		k.RunUntil(k.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("At+RunUntil allocated %.1f objects per event in steady state, want 0", allocs)
	}
}

// A timed callback (AtAction of a Func) must be allocation-free in steady
// state.
func TestAtCallSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	var n int
	fn := Func(func(Time) { n++ })
	k.AtAction(0, fn)
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.AtAction(1, fn)
		k.RunUntil(k.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("AtAction(Func)+RunUntil allocated %.1f objects per event in steady state, want 0", allocs)
	}
	if n < 201 {
		t.Fatalf("callback fired %d times, want at least 201", n)
	}
}

func TestSleepSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	k.RunUntil(1000) // warm up: arena, free list, coroutine stack
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 100)
	})
	k.Shutdown()
	if allocs > 0 {
		t.Fatalf("Sleep round-trips allocated %.1f objects per run in steady state, want 0", allocs)
	}
}

// A Cond in steady use keeps its waiter array: Wait/Broadcast round trips
// between two procs allocate nothing.
func TestCondSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	var conds [2]Cond
	turn := 0
	for me := 0; me < 2; me++ {
		me := me
		k.Spawn("p", func(p *Proc) {
			for {
				for turn%2 != me {
					conds[me].Wait(p)
				}
				turn++
				conds[1-me].Broadcast()
				p.Sleep(1)
			}
		})
	}
	k.RunUntil(100) // warm up: arena, free list, waiter arrays, coroutine stacks
	before := turn
	allocs := testing.AllocsPerRun(100, func() {
		k.RunUntil(k.Now() + 10)
	})
	k.Shutdown()
	if turn == before {
		t.Fatal("no turn was passed during the measured runs")
	}
	if allocs > 0 {
		t.Fatalf("Wait/Broadcast round trips allocated %.1f objects per run in steady state, want 0", allocs)
	}
}

// Property: with arbitrary delays (including many ties), events fire in
// exactly the order of a reference stable sort by timestamp — i.e. ties
// fire in scheduling order — whichever stack fires them. Short-lived procs,
// each spawning a shorter-lived child from its body, are mixed in so that
// the callbacks are fired from the caller and from blocked procs.
func TestPropertyTiesMatchReferenceStableSort(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		var fired []int
		for i, d := range delays {
			i, d := i, d
			k.At(Time(d%8), func() { fired = append(fired, i) }) // %8 forces ties
			if d%3 == 0 {
				k.Spawn("parent", func(p *Proc) {
					p.Sleep(Time(d % 8))
					k.Spawn("child", func(c *Proc) { c.Sleep(Time(d % 5)) })
				})
			}
		}
		k.Run()
		if k.Live() != 0 {
			return false
		}

		ref := make([]int, len(delays))
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			return delays[ref[a]]%8 < delays[ref[b]]%8
		})
		if len(fired) != len(ref) {
			return false
		}
		for i := range ref {
			if fired[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// RunUntil(d) must fire events scheduled at exactly d, not stop short of
// them, and leave events at d+1 queued.
func TestRunUntilFiresEventsExactlyAtDeadline(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{99, 100, 100, 101} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	if n := k.RunUntil(100); n != 3 {
		t.Fatalf("RunUntil(100) fired %d events, want 3 (two exactly at the deadline)", n)
	}
	if len(fired) != 3 || fired[1] != 100 || fired[2] != 100 {
		t.Fatalf("fired %v, want [99 100 100]", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("%d events pending, want 1 (the one beyond the deadline)", k.Pending())
	}
}

// Re-entrant At: an event handler scheduling more events — both at the
// current instant and later — must see them all fire, in order. This
// exercises arena slot reuse while the popped event's callback is running.
func TestReentrantAtFromFiringEvent(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(10, func() {
		order = append(order, "outer")
		k.At(0, func() { order = append(order, "same-instant") })
		k.At(5, func() {
			order = append(order, "later")
			k.At(0, func() { order = append(order, "nested") })
		})
	})
	end := k.Run()
	want := []string{"outer", "same-instant", "later", "nested"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if end != 15 {
		t.Fatalf("end = %v, want 15", end)
	}
}

// Shutdown must unwind parked processes. Without it, every blocked proc pins
// its coroutine's goroutine (and the whole kernel) forever.
func TestShutdownReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := NewKernel()
		var c Cond
		for j := 0; j < 5; j++ {
			k.Spawn("blocked", func(p *Proc) { c.Wait(p) })
		}
		k.Run() // all procs park forever; Run reports them deadlocked
		if len(k.Deadlocked) != 5 {
			t.Fatalf("expected 5 deadlocked procs, got %d", len(k.Deadlocked))
		}
		k.Shutdown()
	}
	// No grace period: a coroutine's goroutine is gone before stop returns.
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after shutdowns, %d before: parked procs leaked", g, before)
	}
}

// Shutdown must also unwind procs that were spawned but never dispatched
// (their start event still queued), without running their body.
func TestShutdownBeforeFirstDispatch(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("never-started", func(p *Proc) { ran = true })
	k.Shutdown()
	if ran {
		t.Fatal("Shutdown ran the body of a never-dispatched proc")
	}
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", k.Live())
	}
}

// Shutdown from inside the simulation is a programming error and must panic
// rather than stop the coroutine it is running on.
func TestShutdownFromInsideSimulationPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("suicidal", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Shutdown from a proc did not panic")
			}
			panic(errShutdown) // unwind this goroutine cleanly
		}()
		k.Shutdown()
	})
	k.Run()
}

// deepDepth is the pending-event count of the deep-queue hold model: what
// one 256-rank alltoall keeps queued.
const deepDepth = 65536

// deepHold returns the fire callback of the hold model that the benchmark's
// sim.event_deep times: every call schedules one more firing of itself at a
// pseudo-random distance in [1, deepDepth], so after deepDepth calls the
// queue holds deepDepth events and stays that deep while it runs.
func deepHold(k *Kernel) func() {
	x := uint64(1)
	var fire func()
	fire = func() {
		x = x*6364136223846793005 + 1442695040888963407
		k.At(Time(1+(x>>33)%deepDepth), fire)
	}
	return fire
}

// A queue 65 536 events deep costs no allocation per event once its arena
// is warm, and filling it from a cold kernel allocates only to grow the
// arena: O(log n) times, 28–35 (the 4-ary heap it replaced grew an index
// slice too: 52–59).
func TestDeepQueueAllocFree(t *testing.T) {
	k := NewKernel()
	fire := deepHold(k)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for range deepDepth {
		fire()
	}
	runtime.ReadMemStats(&ms)
	cold := ms.Mallocs - before
	t.Logf("filling %d events from a cold kernel: %d allocations", deepDepth, cold)
	if cold > 40 {
		t.Errorf("filling %d events allocated %d objects, want at most 40 (arena growth)", deepDepth, cold)
	}
	k.RunUntil(k.Now() + deepDepth) // warm the free list
	fired := k.Stats().Fired
	allocs := testing.AllocsPerRun(20, func() {
		k.RunUntil(k.Now() + 1000)
	})
	if st := k.Stats(); st.Fired == fired || st.Slots != deepDepth {
		t.Fatalf("fired %d events with %d slots, want some with %d", st.Fired-fired, st.Slots, deepDepth)
	}
	if allocs > 0 {
		t.Fatalf("a deep queue allocated %.1f objects per 1 000 ns of run, want 0", allocs)
	}
}

// Slots is the arena's high-water mark: the most events pending at once,
// counted while a handler schedules from inside its own firing, and kept
// when the queue is shallower later.
func TestStatsSlotsIsPeakPending(t *testing.T) {
	k := NewKernel()
	for i := 1; i <= 4; i++ {
		k.At(Time(i), func() {})
	}
	k.At(0, func() { // fires first: its slot is free again, four wait
		for range 3 {
			k.At(10, func() {})
		}
	})
	k.Run()
	k.At(1, func() {})
	k.Run()
	if s := k.Stats().Slots; s != 7 {
		t.Fatalf("Slots = %d, want 7 (four callbacks and three scheduled by the first)", s)
	}
}

// Steady-state scheduling benchmarks; with a warm arena both should report
// 0 allocs/op.

func BenchmarkAtSteadyState(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	k.At(0, fn)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(1, fn)
		k.RunUntil(k.Now() + 1)
	}
}

// The hold model at deepDepth pending events: one op is deepDepth ns of
// virtual time, about as many events, each a pop and a push on a deep
// queue, so that one op (make bench runs one) already says what an event
// costs.
func BenchmarkDeepQueue(b *testing.B) {
	k := NewKernel()
	fire := deepHold(k)
	for range deepDepth {
		fire()
	}
	k.RunUntil(k.Now() + deepDepth)
	fired := k.Stats().Fired
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(k.Now() + deepDepth)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Stats().Fired-fired), "ns/event")
}

// One Sleep per RunUntil slice: the caller resumes the sleeper, which finds
// its next wake-up beyond the deadline and yields — two coroutine switches
// per op, the cost of one cross-proc wake-up.
func BenchmarkSleepRoundTrip(b *testing.B) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	k.RunUntil(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(k.Now() + 1)
	}
	b.StopTimer()
	k.Shutdown()
}

// The self wake-up: a lone proc sleeping inside one Run pops its own
// wake-up every time — no switch of any kind.
func BenchmarkSleepSelfWake(b *testing.B) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// A ring of procs, each waking the next and blocking. Every wake-up is of
// another proc, so every op is one hand-off: a yield to the caller and a
// resume of the next proc, two coroutine switches.
func BenchmarkRingHandoff(b *testing.B) {
	const procs = 8
	k := NewKernel()
	conds := make([]Cond, procs)
	token := 0
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn("ring", func(p *Proc) {
			for {
				for token%procs != i && token < b.N {
					conds[i].Wait(p)
				}
				if token >= b.N {
					break
				}
				token++
				conds[(i+1)%procs].Broadcast()
			}
			for j := range conds {
				conds[j].Broadcast() // release the rest of the ring
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if len(k.Deadlocked) != 0 {
		b.Fatalf("%d procs deadlocked", len(k.Deadlocked))
	}
}

// A stopped proc must not keep running past its next yield.
func TestShutdownStopsProcsMidSleep(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.Spawn("stepper", func(p *Proc) {
		for {
			steps++
			p.Sleep(10)
		}
	})
	k.RunUntil(95) // 10 wakeups: t=0..90
	got := steps
	k.Shutdown()
	if steps != got {
		t.Fatalf("proc advanced during Shutdown: %d -> %d", got, steps)
	}
}

type countAction struct {
	n  int
	at Time
}

func (a *countAction) Fire(at Time) { a.n++; a.at = at }

// AtAction must be allocation-free in steady state.
func TestAtActionSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	a := &countAction{}
	for i := 0; i < 8; i++ {
		k.AtAction(Time(i), a)
	}
	k.Run()
	allocs := testing.AllocsPerRun(200, func() {
		k.AtAction(1, a)
		k.RunUntil(k.Now() + 1)
	})
	if allocs > 0 {
		t.Fatalf("AtAction allocated %.1f objects per op in steady state, want 0", allocs)
	}
	if a.n == 0 || a.at != k.Now() {
		t.Fatalf("action fired %d times, last at %v (now %v)", a.n, a.at, k.Now())
	}
}

// After Shutdown the kernel is dead: the SetTick observer must never fire
// again, and no pooled arena slot can be reused — every scheduling or run
// entry point panics instead of silently resurrecting freed storage.
func TestShutdownKillsObserverAndPooledStorage(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.SetTick(0, func(at Time) Time { ticks++; return at + 5 })
	k.At(12, func() {})
	k.Spawn("parked", func(p *Proc) { (&Cond{}).Wait(p) })
	k.Run()
	got := ticks
	if got == 0 {
		t.Fatal("tick observer never fired during the run")
	}
	k.Shutdown()

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a shut-down kernel did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("At", func() { k.At(1, func() {}) })
	mustPanic("AtAction", func() { k.AtAction(1, &countAction{}) })
	mustPanic("Spawn", func() { k.Spawn("late", func(p *Proc) {}) })
	mustPanic("Run", func() { k.Run() })
	mustPanic("RunUntil", func() { k.RunUntil(k.Now() + 100) })
	if ticks != got {
		t.Fatalf("tick observer fired after Shutdown: %d -> %d", got, ticks)
	}
}

// A fresh kernel after a Shutdown shares nothing with the retired one:
// its arena starts empty, so no slot of the dead kernel can resurface.
func TestShutdownThenFreshKernelSharesNoStorage(t *testing.T) {
	k1 := NewKernel()
	for i := 0; i < 32; i++ {
		k1.At(Time(i), func() {})
	}
	k1.Run()
	k1.Shutdown()
	k2 := NewKernel()
	if len(k2.arena) != 0 || len(k2.freeL) != 0 || k2.Pending() != 0 {
		t.Fatal("fresh kernel inherited arena/free-list state")
	}
	fired := 0
	k2.At(1, func() { fired++ })
	k2.Run()
	if fired != 1 {
		t.Fatalf("fresh kernel fired %d events, want 1", fired)
	}
	k2.Shutdown()
}
