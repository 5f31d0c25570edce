package sim

import "fmt"

type procState int

const (
	procReady procState = iota
	procRunning
	procBlocked
	procKilled // ended by Kill: never resumed, its coroutine parked until Shutdown
	procDone
)

// Proc is a simulated process: a coroutine that executes in virtual time.
// All Proc methods but Kill must be called from the process's own stack
// while it has control (i.e. from inside the function passed to Spawn,
// directly or indirectly).
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state procState

	// The iter.Pull coroutine. next and stop are called only by Kernel.run
	// and Kernel.Shutdown, on the caller's goroutine; yield only by block.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	daemon bool
}

// SetDaemon marks the process as a daemon: it is expected to block forever
// (e.g. a progress engine) and is excluded from deadlock reporting.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// ID returns the process's kernel-unique identifier.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// String implements fmt.Stringer: a process prints as its name, so a
// Kernel.Deadlocked report reads as the list of blocked processes.
func (p *Proc) String() string { return p.name }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

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

// done marks p finished. Live stops counting it here unless Kill already did.
func (p *Proc) done() {
	if p.state != procKilled {
		p.k.live--
	}
	p.state = procDone
}

// Kill ends the process from handler context (an event callback, not a
// process body): it is never resumed again, and a wake-up still pending for
// it is dropped, as for a finished process. Live stops counting it at once;
// Shutdown unwinds its parked coroutine. Killing a finished or killed
// process does nothing.
func (p *Proc) Kill() {
	if p.k.running != nil {
		panic(fmt.Sprintf("sim: Kill(%q) called from proc %q", p.name, p.k.running.name))
	}
	if p.state >= procKilled {
		return
	}
	p.state = procKilled
	p.k.live--
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

// Cond is a condition variable for simulated processes. It has no associated
// lock (the simulation is single-threaded); use it with a predicate loop:
//
//	for !pred() {
//	    cond.Wait(p)
//	}
//
// Broadcast may be called from any context (another process or an event
// handler).
type Cond struct {
	waiters []*Proc
}

// Wait blocks p until the condition is signalled. Spurious wakeups are
// possible by design; always re-check the predicate.
func (c *Cond) Wait(p *Proc) {
	p.checkRunning()
	c.waiters = append(c.waiters, p)
	p.block()
}

// Broadcast wakes all waiting processes at the current virtual time. The
// waiter list is emptied in place — scheduling a wake-up never re-enters
// Wait — so a Cond in steady use keeps its backing array and Wait does not
// allocate.
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		w.k.scheduleProc(w.k.now, w)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}
