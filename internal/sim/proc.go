package sim

import "fmt"

type procState int

const (
	procReady procState = iota
	procRunning
	procBlocked
	procDone
)

// Proc is a simulated process: a coroutine that executes in virtual time.
// All Proc methods must be called from the process's own stack while it has
// control (i.e. from inside the function passed to Spawn, directly or
// indirectly).
type Proc struct {
	k     *Kernel
	name  string
	state procState

	// The iter.Pull coroutine. next and stop are called only by Kernel.run
	// and Kernel.Shutdown, on the caller's goroutine; yield only by block.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// String implements fmt.Stringer: a process prints as its name, so a
// Kernel.Deadlocked report reads as the list of blocked processes.
func (p *Proc) String() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

func (p *Proc) checkRunning() {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: proc %q method called while not running (running=%v)", p.name, p.k.running))
	}
}

// block gives up control until p's next wake-up, which the caller must have
// arranged. The process runs the event loop on its own stack: if the wake-up
// it pops is its own it simply returns, with no switch; otherwise it yields
// to the Run/RunUntil caller, which resumes whichever process drive left in
// k.handoff, and stays parked until its own wake-up is popped. If the kernel
// is shut down while the process is parked, yield returns false and the
// process unwinds via the shutdown sentinel (recovered by exit).
func (p *Proc) block() {
	p.state = procBlocked
	p.k.running = nil
	if p.k.driveOn(p) == wokeSelf {
		return
	}
	if !p.yield(struct{}{}) {
		panic(errShutdown)
	}
}

// exit is the deferred tail of every process coroutine. A body that panicked
// is reported to the Run/RunUntil caller, which re-raises the panic with the
// process's name and the virtual time.
func (p *Proc) exit() {
	k := p.k
	if r := recover(); r != nil && r != errShutdown {
		k.failure = k.panicError(r, p)
	}
	p.done()
	k.running = nil
}

// done marks p finished.
func (p *Proc) done() {
	p.k.live--
	p.state = procDone
}

// Sleep advances the process's virtual time by d. Other events and processes
// run in the meantime. A non-positive d yields the processor for one
// scheduling round at the current timestamp.
func (p *Proc) Sleep(d Time) {
	p.checkRunning()
	if d < 0 {
		d = 0
	}
	k := p.k
	k.scheduleProc(k.now+d, p)
	p.block()
}

// AdvanceBusy is Sleep under the name call sites use for modelled CPU work
// (compute, posting overheads), as opposed to waiting.
func (p *Proc) AdvanceBusy(d Time) { p.Sleep(d) }

// Cond is a condition variable for simulated processes and event handlers.
// It has no associated lock (the simulation is single-threaded); use it with
// a predicate loop:
//
//	for !pred() {
//	    cond.Wait(p)
//	}
//
// An event handler waits by parking an Action on it (Park), which the next
// Broadcast schedules. Broadcast may be called from any context (a process
// or an event handler).
type Cond struct {
	waiters []waiter
}

// waiter is a process blocked in Wait, or an Action parked on k.
type waiter struct {
	k *Kernel
	p *Proc
	a Action
}

// Wait blocks p until the condition is signalled. Spurious wakeups are
// possible by design; always re-check the predicate.
func (c *Cond) Wait(p *Proc) {
	p.checkRunning()
	c.waiters = append(c.waiters, waiter{k: p.k, p: p})
	p.block()
}

// Park is Wait for code that is not a process: the next Broadcast schedules
// a on k at the broadcast's instant, in the same order as the processes
// waiting with it, as if a were a process woken there. a is scheduled once;
// it parks again if it wants the following broadcast too.
func (c *Cond) Park(k *Kernel, a Action) {
	c.waiters = append(c.waiters, waiter{k: k, a: a})
}

// Broadcast wakes all waiting processes and schedules all parked Actions at
// the current virtual time. The waiter list is emptied in place — scheduling
// a wake-up never re-enters Wait — so a Cond in steady use keeps its backing
// array and Wait does not allocate.
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		if w.p != nil {
			w.k.scheduleProc(w.k.now, w.p)
		} else {
			w.k.AtAction(0, w.a)
		}
		c.waiters[i] = waiter{}
	}
	c.waiters = c.waiters[:0]
}
