package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Tests that pin the hand-off protocol itself: who runs the loop, how many
// coroutine switches a wake-up costs, and what RunUntil, SetTick,
// checkRunning and panics see when the loop runs on a process's stack.

// buildWorkload schedules a randomized event graph on k: plain events, some
// re-entrant, and sleeping procs with cross-proc condition wake-ups, so the
// loop moves between the caller's stack and those of four processes and
// callbacks run on all of them. Every firing appends label@now to out.
func buildWorkload(k *Kernel, seed int64, out *[]string) {
	rng := rand.New(rand.NewSource(seed))
	record := func(label string) {
		*out = append(*out, fmt.Sprintf("%s@%d", label, k.Now()))
	}
	var cond Cond
	for n := 0; n < 4; n++ {
		n := n
		k.Spawn(fmt.Sprintf("node%d", n), func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(Time(1 + rng.Intn(7)))
				record(fmt.Sprintf("proc%d.%d", n, i))
				if i%3 == 0 {
					cond.Broadcast()
				} else if i%5 == 1 {
					cond.Wait(p)
				}
			}
			cond.Broadcast() // let stragglers finish
		})
	}
	for i := 0; i < 60; i++ {
		i := i
		k.At(Time(rng.Intn(40)), func() {
			record(fmt.Sprintf("ev%d", i))
			if i%4 == 0 {
				k.At(0, func() { record(fmt.Sprintf("ev%d.same", i)) })
				k.At(2, func() { record(fmt.Sprintf("ev%d.x", i)) })
			}
		})
	}
}

// A simulation cut into RunUntil slices — each deadline reached while some
// process is running the loop — and finished by Run must fire the exact
// sequence of one uninterrupted Run, and the slices' fired counts must add up
// to it. Every other slice is issued from a goroutine of its own: only one
// goroutine at a time may resume the coroutines, not always the same one.
func TestRunUntilThenRunMatchesUninterruptedRun(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		var want []string
		ref := NewKernel()
		buildWorkload(ref, seed, &want)
		ref.Run()
		ref.Shutdown()
		if len(want) == 0 {
			t.Fatalf("seed %d: uninterrupted run recorded nothing", seed)
		}
		for _, step := range []Time{1, 3, 17} {
			var got []string
			k := NewKernel()
			buildWorkload(k, seed, &got)
			fired := 0
			for d := step; d < 60; d += step {
				if (d/step)%2 == 0 {
					fired += k.RunUntil(d)
				} else {
					done := make(chan int)
					go func() { done <- k.RunUntil(d) }()
					fired += <-done
				}
				if k.Now() != d {
					t.Fatalf("seed %d step %d: clock %v after RunUntil(%v)", seed, step, k.Now(), d)
				}
			}
			before := k.Stats().Fired
			k.Run()
			fired += int(k.Stats().Fired - before)
			k.Shutdown()
			if fired != int(ref.Stats().Fired) {
				t.Fatalf("seed %d step %d: slices fired %d events, one Run fired %d", seed, step, fired, ref.Stats().Fired)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d firings, want %d", seed, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: firing %d = %s, want %s", seed, step, i, got[i], want[i])
				}
			}
		}
	}
}

// RunUntil must honour the deadline exactly when it is a process that finds
// the queue's head beyond it: events at the deadline fire, later
// ones stay queued, and the count includes the wake-ups.
func TestRunUntilDeadlineOnProcGoroutine(t *testing.T) {
	k := NewKernel()
	cbs := 0
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10) // wakes at 10, 20, 30, ...
		}
	})
	for i := 1; i <= 8; i++ {
		k.At(Time(5*i), func() { cbs++ }) // 5, 10, ..., 40; on a tie the callback was scheduled first
	}
	// Start event + callback@5 + callback@10 + wake@10; the wake@10 handler
	// is the sleeper itself, which then finds callback@15 beyond the deadline.
	if n := k.RunUntil(10); n != 4 {
		t.Fatalf("RunUntil(10) fired %d events, want 4", n)
	}
	if cbs != 2 || k.Now() != 10 {
		t.Fatalf("after RunUntil(10): %d callbacks at %v, want 2 at 10", cbs, k.Now())
	}
	if k.Pending() != 7 { // six callbacks and the wake-up at 20
		t.Fatalf("%d events pending, want 7", k.Pending())
	}
	// Nothing in (10, 14]: the caller itself finds the head beyond the deadline.
	if n := k.RunUntil(14); n != 0 || k.Now() != 14 {
		t.Fatalf("RunUntil(14) fired %d events, clock %v; want 0 at 14", n, k.Now())
	}
	if n := k.RunUntil(40); n != 9 { // callbacks 15..40 and wake-ups 20, 30, 40
		t.Fatalf("RunUntil(40) fired %d events, want 9", n)
	}
	if k.Pending() != 1 || cbs != 8 {
		t.Fatalf("pending %d callbacks %d, want 1 and 8", k.Pending(), cbs)
	}
	k.Shutdown()
}

// A process whose Sleep pops its own wake-up keeps running the loop:
// callbacks interleaved with its sleeps run on its stack and the run loop
// resumes it once, at its start, however long it runs.
func TestSelfWakeSleepMakesNoHandoff(t *testing.T) {
	const sleeps = 1000
	k := NewKernel()
	cbs := 0
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < sleeps; i++ {
			k.At(1, func() { cbs++ }) // fires while the sleeper drives the loop
			p.Sleep(2)
		}
	})
	k.Run()
	st := k.Stats()
	if cbs != sleeps {
		t.Fatalf("%d callbacks fired, want %d", cbs, sleeps)
	}
	want := Stats{
		Fired:       2*sleeps + 1, // start, callbacks, wake-ups
		Wakeups:     sleeps + 1,
		SelfWakeups: sleeps,
		Handoffs:    1, // the start; a body that returns is not resumed again
		Slots:       2, // a callback and the wake-up
	}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

// In a ring of procs each waking the next, every wake-up is of another
// process and costs exactly one resume by the run loop.
func TestRingOneHandoffPerWakeup(t *testing.T) {
	const procs, laps = 5, 100
	k := NewKernel()
	conds := make([]Cond, procs)
	token := 0
	for i := 0; i < procs; i++ {
		i := i
		k.Spawn(fmt.Sprintf("ring%d", i), func(p *Proc) {
			for lap := 0; lap < laps; lap++ {
				for token%procs != i {
					conds[i].Wait(p)
				}
				token++
				conds[(i+1)%procs].Broadcast()
			}
		})
	}
	k.Run()
	if token != procs*laps || len(k.Deadlocked) != 0 {
		t.Fatalf("token %d, deadlocked %d; want %d and 0", token, len(k.Deadlocked), procs*laps)
	}
	st := k.Stats()
	if st.SelfWakeups != 0 {
		t.Fatalf("%d self wake-ups in a ring, want 0", st.SelfWakeups)
	}
	if st.Wakeups != st.Fired {
		t.Fatalf("Wakeups %d != Fired %d: the ring schedules nothing but wake-ups", st.Wakeups, st.Fired)
	}
	if st.Wakeups < procs*laps || st.Handoffs != st.Wakeups {
		t.Fatalf("Handoffs = %d for %d wake-ups, want one each and at least %d", st.Handoffs, st.Wakeups, procs*laps)
	}
}

// Handler context stays handler context on a process's stack: a callback
// that calls a Proc method panics in checkRunning even when the stack
// executing it is that very process's, and the panic reaches Run's caller.
func TestHandlerOnProcGoroutineCannotCallProcMethods(t *testing.T) {
	k := NewKernel()
	k.Spawn("driver", func(p *Proc) {
		k.At(1, func() { p.Sleep(1) }) // runs on driver's goroutine, inside its Sleep(5)
		p.Sleep(5)
	})
	r := runRecovering(k)
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *PanicError", r, r)
	}
	if pe.Proc != "" || !strings.Contains(pe.Error(), "method called while not running") {
		t.Fatalf("PanicError = %v (Proc %q), want a handler-context checkRunning failure", pe, pe.Proc)
	}
	k.Shutdown()
}

// The tick hook fires from inside the loop, whichever stack runs it:
// across self wake-ups, hand-offs between procs, procs finishing and
// RunUntil boundaries it sees every bucket boundary exactly once, in order.
func TestTickSeesEveryBoundaryOnceAcrossBatonTransfers(t *testing.T) {
	const width = 7
	k := NewKernel()
	var ticks []Time
	next := Time(0)
	k.SetTick(0, func(at Time) Time {
		ticks = append(ticks, next)
		if at < next {
			t.Errorf("tick for boundary %v fired early, at %v", next, at)
		}
		next += width
		return next
	})
	var log []string
	buildWorkload(k, 3, &log)
	k.RunUntil(20)
	k.RunUntil(33)
	end := k.Run()
	k.Shutdown()
	want := int(end/width) + 1
	if len(ticks) != want {
		t.Fatalf("%d ticks up to %v, want %d", len(ticks), end, want)
	}
	for i, b := range ticks {
		if b != Time(i*width) {
			t.Fatalf("tick %d closed boundary %v, want %v", i, b, Time(i*width))
		}
	}
}

// runRecovering runs k and returns what Run panicked with, nil if it did not.
func runRecovering(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Run()
	return nil
}

// A panic in a process body surfaces from Run on the caller's goroutine,
// wrapped with the process's name and the virtual time; the original value
// and its text stay reachable, and the kernel can still be shut down.
func TestProcBodyPanicSurfacesFromRun(t *testing.T) {
	cause := errors.New("halo buffer overrun")
	k := NewKernel()
	var parked Cond
	k.Spawn("bystander", func(p *Proc) { parked.Wait(p) })
	k.Spawn("rank3", func(p *Proc) {
		p.Sleep(40)
		panic(cause)
	})
	r := runRecovering(k)
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *PanicError", r, r)
	}
	if pe.Proc != "rank3" || pe.At != 40 || pe.Value != cause {
		t.Fatalf("PanicError = {Proc %q, At %v, Value %v}, want {rank3, 40, %v}", pe.Proc, pe.At, pe.Value, cause)
	}
	if !errors.Is(pe, cause) || !strings.Contains(pe.Error(), cause.Error()) || !strings.Contains(pe.Error(), "rank3") {
		t.Fatalf("PanicError %q does not carry the cause and the proc name", pe.Error())
	}
	if !strings.Contains(string(pe.Stack), "TestProcBodyPanicSurfacesFromRun") {
		t.Fatalf("stack does not reach the panicking body:\n%s", pe.Stack)
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", k.Live())
	}
}

// A process that recovers in its body must not swallow the panic of a
// handler it merely happened to be executing: the panic goes to Run's
// caller, and the process never sees it.
func TestHandlerPanicNotSwallowedByProcRecover(t *testing.T) {
	k := NewKernel()
	swallowed := false
	k.Spawn("careful", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil && r != errShutdown {
				swallowed = true
			}
		}()
		k.At(3, func() { panic("fabric: bad packet") })
		p.Sleep(10) // the handler at t=3 runs on this stack
	})
	r := runRecovering(k)
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *PanicError", r, r)
	}
	if pe.Proc != "" || pe.At != 3 || pe.Value != "fabric: bad packet" {
		t.Fatalf("PanicError = {Proc %q, At %v, Value %v}, want a handler panic at 3", pe.Proc, pe.At, pe.Value)
	}
	if !strings.Contains(pe.Error(), "fabric: bad packet") {
		t.Fatalf("PanicError %q lost the original text", pe.Error())
	}
	k.Shutdown()
	if swallowed {
		t.Fatal("the proc's recover saw the handler's panic")
	}
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", k.Live())
	}
}

// Spawn works from wherever the loop runs: a handler executing on a blocked
// process's stack creates a coroutine from inside a coroutine, and the
// caller still resumes the child at the virtual time it was spawned.
func TestSpawnFromHandlerOnProcStack(t *testing.T) {
	k := NewKernel()
	var childAt, grandchildAt Time
	k.Spawn("parent", func(p *Proc) {
		k.At(3, func() { // runs on parent's stack, inside its Sleep(10)
			k.Spawn("child", func(c *Proc) {
				childAt = c.Now()
				c.Sleep(4)
				k.Spawn("grandchild", func(g *Proc) { grandchildAt = g.Now() })
			})
		})
		p.Sleep(10)
	})
	if end := k.Run(); end != 10 || childAt != 3 || grandchildAt != 7 {
		t.Fatalf("child started at %v, grandchild at %v, run ended at %v; want 3, 7, 10", childAt, grandchildAt, end)
	}
	if k.Live() != 0 || len(k.procs) != 3 {
		t.Fatalf("Live() = %d of %d procs, want 0 of 3", k.Live(), len(k.procs))
	}
}

// A coroutine is a goroutine with a stack, and none may outlive its kernel:
// the count is back to the baseline — with no grace period, since the
// coroutine's goroutine is gone before next/stop return — once every body
// has returned, and after Shutdown of procs that are parked on a Cond,
// part-way through a Sleep, or spawned but never dispatched. (Not equal to
// the baseline: a goroutine of an earlier test may still be on its way out.)
func TestNoGoroutineOutlivesRunOrShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("%d goroutines %s, %d before", g, when, base)
		}
	}

	k := NewKernel()
	var log []string
	buildWorkload(k, 1, &log)
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Run, want 0", k.Live())
	}
	check("after Run to completion")

	k = NewKernel()
	var never Cond
	ran := false
	k.Spawn("parked", func(p *Proc) { never.Wait(p) })
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	k.RunUntil(25)
	k.Spawn("never-dispatched", func(p *Proc) { ran = true })
	k.Shutdown()
	if ran || k.Live() != 0 {
		t.Fatalf("after Shutdown: never-dispatched body ran = %v, Live() = %d; want false, 0", ran, k.Live())
	}
	check("after Shutdown")
}
