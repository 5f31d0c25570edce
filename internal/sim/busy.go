package sim

// Busy is a busy-until clock for work that runs as event-handler steps
// instead of on a process's stack: a DPU proxy's progress engine, and a
// rank's MPI progress. The owner gives it one step, an Action. Each costed
// call the work makes is charged here, and the step fires at the instant
// the cost is paid, where a process making the call would have woken.
// Scheduling every step from the call point where that process would have
// scheduled its wake-up keeps every tie in the event queue in its place.
//
// A step pays for one call at most. What the call leaves to do once it is
// paid (issue a work request, finish a registration attempt) is its
// completion, given to Charge. What remains of the unit of work the call cut
// short is the continuation, given to Cut. Settle, the first thing a step
// does, fires both. Work that waits parks the step on a Cond. A process that
// hands its work to the steps is held (Hold) until a step resumes it in
// place (Resume).
type Busy struct {
	k    *Kernel
	step Action
	done Action // the completion of the call being paid for; nil: none is
	then Action // the rest of the unit of work that call cut short
}

// paid is the completion of a charge that has none.
var paid Action = Func(func(Time) {})

// Init binds the clock to k and to the owner's step.
func (b *Busy) Init(k *Kernel, step Action) { b.k, b.step = k, step }

// Charge pays for a costed call of d: the step fires at the instant it is
// paid and first fires done, the call's completion (nil: none). A step that
// charges twice panics.
func (b *Busy) Charge(d Time, done Action) {
	if b.done != nil {
		panic("sim: a step paid for two costed calls")
	}
	if done == nil {
		done = paid
	}
	b.done = done
	b.k.AtAction(d, b.step)
}

// Charged reports whether the running step has paid for a costed call.
func (b *Busy) Charged() bool { return b.done != nil }

// Cut reports whether the running step has paid for a costed call and, if
// so, leaves rest to run once the call's completion, and whatever it
// chains, is settled.
func (b *Busy) Cut(rest Action) bool {
	if b.done != nil {
		b.then = rest
	}
	return b.done != nil
}

// Settle begins a step: it fires the completion of the call the last step
// paid for, then, unless that paid for another call, the continuation. It
// reports whether the step has paid for another call, which ends the step.
func (b *Busy) Settle(now Time) bool {
	if d := b.done; d != nil {
		b.done = nil
		d.Fire(now)
		if b.done != nil {
			return true
		}
	}
	if t := b.then; t != nil {
		b.then = nil
		t.Fire(now)
	}
	return b.done != nil
}

// Park schedules the step at the next Broadcast of c, in the order of the
// processes waiting on c with it.
func (b *Busy) Park(c *Cond) { c.Park(b.k, b.step) }

// Hold parks p, which must be running, until a step resumes it; the steps
// that finish p's work must be scheduled or parked already.
func (b *Busy) Hold(p *Proc) {
	p.checkRunning()
	p.block()
}

// Resume resumes p, held, in place, at the running step's instant: it runs
// as soon as the step returns, before any other event, and no event is
// scheduled for it. Only a step may call it.
func (b *Busy) Resume(p *Proc) { b.k.resume(p) }
