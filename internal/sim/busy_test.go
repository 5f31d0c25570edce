package sim

import (
	"fmt"
	"slices"
	"testing"
)

// stepper owns a Busy for the tests: its step settles, then runs body.
type stepper struct {
	clk  Busy
	body func(now Time)
}

func newStepper(k *Kernel, body func(now Time)) *stepper {
	s := &stepper{body: body}
	s.clk.Init(k, s)
	return s
}

func (s *stepper) Fire(now Time) {
	if s.clk.Settle(now) {
		return
	}
	if s.body != nil {
		s.body(now)
	}
}

// A charge schedules one step at the instant it is paid; the step fires
// the call's completion, then the continuation, then goes on. A completion
// that charges again ends its step, and the continuation waits for the next
// one. A second charge in one step panics.
func TestBusyChargesOncePerStep(t *testing.T) {
	k := NewKernel()
	var log []string
	note := func(what string) Func { return func(at Time) { log = append(log, fmt.Sprintf("%s@%d", what, at)) } }
	var s *stepper
	s = newStepper(k, func(now Time) { note("body")(now) })
	again := Func(func(at Time) {
		note("again")(at)
		s.clk.Charge(3, note("done2"))
	})
	k.At(0, func() {
		s.clk.Charge(5, again)
		if !s.clk.Cut(note("rest")) {
			t.Error("Cut after a charge reports no charge")
		}
	})
	k.Run()
	want := []string{"again@5", "done2@8", "rest@8", "body@8"}
	if !slices.Equal(log, want) {
		t.Errorf("steps ran %v, want %v", log, want)
	}
	if f := k.Stats().Fired; f != 3 {
		t.Errorf("%d events fired, want 3: the handler and one step per charge", f)
	}

	k2 := NewKernel()
	s2 := newStepper(k2, nil)
	k2.At(0, func() {
		s2.clk.Charge(1, nil)
		s2.clk.Charge(1, nil)
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second charge in one step did not panic")
			}
		}()
		k2.Run()
	}()
	k2.Shutdown()
}

// A held process resumed in place by a step runs at the step's instant and
// fires no event of its own, on its own stack (a self wake-up) or, when the
// step fires on another process's stack, through one handoff.
func TestBusyResumesInPlace(t *testing.T) {
	k := NewKernel()
	var resumedA, resumedB Time
	a := newStepper(k, nil)
	var pa *Proc
	a.body = func(Time) { a.clk.Resume(pa) }
	pa = k.Spawn("a", func(p *Proc) {
		a.clk.Charge(7, nil)
		a.clk.Hold(p)
		resumedA = p.Now()
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(10) // a's step fires on b's stack
		resumedB = p.Now()
	})
	k.Run()
	if resumedA != 7 || resumedB != 10 {
		t.Errorf("a resumed at %v, b at %v; want 7 and 10", resumedA, resumedB)
	}
	// Two spawns, a's step, b's wake-up: a's resume is no event.
	want := Stats{Fired: 4, Wakeups: 4, Handoffs: 4, Slots: 2}
	if got := k.Stats(); got != want {
		t.Errorf("kernel counts %+v, want %+v", got, want)
	}

	k2 := NewKernel()
	c := newStepper(k2, nil)
	var pc *Proc
	c.body = func(Time) { c.clk.Resume(pc) }
	pc = k2.Spawn("c", func(p *Proc) {
		c.clk.Charge(4, nil)
		c.clk.Hold(p) // the step fires on c's own stack
	})
	k2.Run()
	want = Stats{Fired: 2, Wakeups: 2, SelfWakeups: 1, Handoffs: 1, Slots: 1}
	if got := k2.Stats(); got != want {
		t.Errorf("self resume: kernel counts %+v, want %+v", got, want)
	}

	// Only a step resumes, and only a held process.
	k3 := NewKernel()
	d := newStepper(k3, nil)
	k3.Spawn("d", func(p *Proc) { d.clk.Resume(p) })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a process resuming itself did not panic")
			}
		}()
		k3.Run()
	}()
	k3.Shutdown()
}

// A step parked on a Cond is scheduled by the next Broadcast in its place
// among the waiting processes, as if it were one of them.
func TestBusyParkKeepsWaiterOrder(t *testing.T) {
	k := NewKernel()
	var c Cond
	var log []string
	s := newStepper(k, func(now Time) { log = append(log, fmt.Sprintf("step@%d", now)) })
	waiter := func(name string) func(*Proc) {
		return func(p *Proc) {
			c.Wait(p)
			log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
		}
	}
	k.Spawn("first", waiter("first"))
	k.At(0, func() { s.clk.Park(&c) })
	k.Spawn("last", waiter("last"))
	k.At(5, c.Broadcast)
	k.Run()
	want := []string{"first@5", "step@5", "last@5"}
	if !slices.Equal(log, want) {
		t.Errorf("woke in order %v, want %v", log, want)
	}
}
