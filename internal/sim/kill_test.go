package sim

import (
	"runtime"
	"testing"
)

// A process killed from a handler never runs again: its pending wake-up is
// dropped, Live stops counting it at once and exactly once, it is not
// reported deadlocked, and Shutdown still unwinds its parked coroutine.
func TestKillDropsPendingWakeup(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel()
	steps, unwound := 0, false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			steps++
			p.Sleep(10)
		}
	})
	k.At(25, func() {
		victim.Kill()
		victim.Kill() // a second kill changes nothing
	})
	k.Run()
	if steps != 3 { // t = 0, 10, 20
		t.Fatalf("victim ran %d steps, want 3: it resumed after Kill", steps)
	}
	if k.Live() != 0 || len(k.Deadlocked) != 0 {
		t.Fatalf("Live() = %d, %d deadlocked after Kill; want 0, 0", k.Live(), len(k.Deadlocked))
	}
	if k.Now() != 30 {
		t.Fatalf("Run ended at %v, want 30 (the dropped wake-up still fires)", k.Now())
	}
	k.Shutdown()
	if !unwound || k.Live() != 0 {
		t.Fatalf("after Shutdown: unwound = %v, Live() = %d; want true, 0", unwound, k.Live())
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after Shutdown, %d before: the killed proc leaked", g, before)
	}
}

// Kill from a handler that runs on the victim's own stack (the victim has
// just blocked and drives the loop), of a Cond waiter, and of a process that
// never started: none of them resumes, and a fresh process takes over.
func TestKillWaiterFromItsOwnStackAndBeforeStart(t *testing.T) {
	k := NewKernel()
	var c Cond
	woke, started, fresh := false, false, false
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		k.At(0, func() { // fires on this stack once Wait blocks
			waiter.Kill()
			c.Broadcast()
		})
		c.Wait(p)
		woke = true
	})
	late := k.Spawn("late", func(p *Proc) { started = true })
	late.Kill()
	k.At(5, func() { k.Spawn("fresh", func(p *Proc) { fresh = true }) })
	k.Run()
	if woke || started || !fresh {
		t.Fatalf("woke = %v, started = %v, fresh = %v; want false, false, true", woke, started, fresh)
	}
	if k.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", k.Live())
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", k.Live())
	}
}

// Kill belongs to handler context; a process body calling it is a bug.
func TestKillFromProcPanics(t *testing.T) {
	k := NewKernel()
	other := k.Spawn("other", func(p *Proc) { p.Sleep(100) })
	k.Spawn("killer", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Kill from a proc did not panic")
			}
		}()
		other.Kill()
	})
	k.Run()
	k.Shutdown()
}
