package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"runtime/debug"

	"repro/internal/pool"
)

// Action is a pre-allocated deliverable: an object whose Fire method runs
// when its scheduled time arrives. It exists for the per-message hot paths
// (fabric deliveries, verbs completion flights) that would otherwise build a
// fresh closure per operation — a pooled struct implementing Action can be
// scheduled with AtAction and recycled by its own Fire, so steady-state
// message traffic allocates nothing.
type Action interface {
	Fire(at Time)
}

// Func adapts a function to an Action, for the cold paths (failover, tests)
// where a closure per operation costs nothing that matters. A func value is
// pointer-shaped, so the conversion itself allocates nothing.
type Func func(at Time)

// Fire implements Action.
func (f Func) Fire(at Time) { f(at) }

// event is one arena slot: a scheduled callback, a parked process waiting
// to be dispatched, or a pooled Action. Exactly one of fn/p/act is set.
// Events with equal timestamps fire in scheduling order, which makes runs
// deterministic (see push).
//
// Events live in the kernel's arena (a value slice indexed by evIdx) and are
// recycled through a free list, so steady-state scheduling allocates
// nothing: no per-event heap object and no interface{} boxing. A pending
// event is linked into its queue bucket's chain through next.
type event struct {
	at   Time
	next evIdx  // next event in the same bucket, when not its tail
	fn   func() // plain callback (handler context)
	p    *Proc  // parked process to wake
	act  Action // pooled deliverable; receives the firing time
}

// evIdx indexes the event arena. int32 keeps the links compact; two billion
// simultaneously-pending events is far beyond any plausible run.
type evIdx = int32

// bucket is one FIFO chain of the event queue, linked through event.next,
// with the least timestamp it holds. It is empty unless its bit is set in
// Kernel.full; head, tail and min are stale then.
type bucket struct {
	head, tail evIdx
	min        Time
}

// Kernel is the discrete-event simulation engine. Create one with NewKernel,
// spawn processes with Spawn, schedule raw callbacks with At, then call Run.
//
// Processes are coroutines (iter.Pull) and there is no kernel goroutine. The
// event loop is one function, drive, and it runs on the Run/RunUntil caller's
// stack or on the stack of a process that has just blocked (see drive).
// Exactly one of them executes at a time and every transfer of control is a
// coroutine switch, so kernel state needs no locks.
type Kernel struct {
	now Time

	arena []event // event storage; slots are recycled via freeL
	freeL []evIdx // free slots in arena

	// The event queue: a monotone radix queue over the pending events'
	// timestamps (see push). last is the time of the latest refill and
	// never passes the clock; bit b of full is set when buckets[b] holds
	// an event.
	buckets [64]bucket
	full    uint64
	last    Time

	procs   []*Proc
	live    int   // spawned but not finished
	running *Proc // process currently executing, nil in handler context
	dead    bool  // set by Shutdown; the kernel accepts no further work

	// The current Run/RunUntil, kept here so that whichever stack runs the
	// loop applies it. handoff is the process a blocked process wants resumed
	// in its place, set just before it yields to the caller; failure is a
	// panic caught on a process's stack, waiting for the caller to re-raise it.
	handoff  *Proc
	resumed  *Proc // the process a handler resumed in place (resume)
	deadline Time
	bounded  bool
	failure  *PanicError
	stats    Stats

	// tick, when set, fires whenever the clock reaches tickAt: it runs
	// after the clock advances but before the event at that timestamp is
	// dispatched, and returns the next time it wants to fire. It is a pure
	// observer — it must not schedule events or consume virtual time — and
	// exists so samplers (the telemetry recorder) can close fixed-width
	// virtual-time buckets without injecting events into the queue, which
	// would perturb the firing order and break bit-identical timings.
	tick   func(Time) Time
	tickAt Time

	// Deadlocked is filled by Run when it returns with processes still
	// blocked and no events pending.
	Deadlocked []*Proc
}

// Stats are exact counters of what the run loop has done since NewKernel,
// and the event arena's size.
type Stats struct {
	Fired       uint64 // events popped and fired, of every kind
	Wakeups     uint64 // process wake-ups delivered: popped, or made in place by a handler
	SelfWakeups uint64 // wake-ups delivered on the stack of the process they wake: no switch
	Handoffs    uint64 // coroutine resumes by the run loop: Wakeups - SelfWakeups
	Slots       int    // event arena size: the most events ever pending at once
}

// Stats returns the run-loop counters and the arena's high-water mark.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.Slots = len(k.arena)
	return s
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Clock is the read-only view of a virtual clock. Kernel satisfies it;
// observability layers (metrics, spans) depend on Clock rather than the
// full Kernel so they can read timestamps without being able to schedule
// work — reading a Clock can never perturb the simulation.
type Clock interface {
	Now() Time
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at now+delay in kernel (handler) context.
// A negative delay is treated as zero.
func (k *Kernel) At(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.schedule(k.now+delay, fn)
}

// AtAction schedules a pooled deliverable at now+delay (see Action). The
// event slot stores the interface value directly, so scheduling a pointer-
// typed Action allocates nothing. A negative delay is treated as zero.
func (k *Kernel) AtAction(delay Time, a Action) {
	if delay < 0 {
		delay = 0
	}
	k.push(k.now + delay).act = a
}

func (k *Kernel) schedule(at Time, fn func()) { k.push(at).fn = fn }

// scheduleProc schedules a wake-up of p at the given time. This is the
// allocation-free fast path for Sleep and condition wakeups: the event
// carries the process pointer itself, so no per-wakeup closure is created.
func (k *Kernel) scheduleProc(at Time, p *Proc) { k.push(at).p = p }

// slot returns a free arena index, growing the arena only when the free
// list is empty (steady state reuses slots and allocates nothing). The
// arena grows by pool.Append: it reaches one slot per message in flight,
// ~65 k on a 256-rank alltoall. The free list, 4 bytes a slot, keeps
// append, whose one check is all the run loop pays per fired event.
func (k *Kernel) slot() evIdx {
	if k.dead {
		panic("sim: schedule on a kernel after Shutdown")
	}
	if n := len(k.freeL); n > 0 {
		i := k.freeL[n-1]
		k.freeL = k.freeL[:n-1]
		return i
	}
	k.arena = pool.Append(k.arena, event{})
	return evIdx(len(k.arena) - 1)
}

// The event queue is a monotone radix queue. Bucket b holds the pending
// events whose time first differs from last at bit b-1, bucket 0 those at
// last itself, each chain in the order its events were filed; the lowest
// non-empty bucket holds the earliest events. Pushing appends to one chain.
// Popping takes bucket 0's head; when bucket 0 is empty, the lowest
// non-empty bucket b is refilled: last moves to its minimum and its events
// are re-filed, into buckets below b that are all empty.
//
// No event is ever behind the clock (push refuses one), and last never
// passes the clock, so times are at least last and, as Time is never
// negative, differ from it below bit 63: 64 buckets suffice. A refill from
// bucket b keeps every bit of last at or above b-1, so events in higher
// buckets stay correctly filed. Two events at the same time are therefore
// always in the same bucket, in the order they were pushed, and ties fire
// in scheduling order with no sequence number.

// push files a new event at time at and returns its slot for the caller to
// fill. An event behind the clock would be filed against last and fire
// after later ones, so it panics here, on the stack that scheduled it.
func (k *Kernel) push(at Time) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", at, k.now))
	}
	i := k.slot()
	ev := &k.arena[i]
	ev.at = at
	k.file(i, at)
	return ev
}

// file appends event i, at time at, to its bucket's chain.
func (k *Kernel) file(i evIdx, at Time) {
	b := bits.Len64(uint64(at ^ k.last))
	bk := &k.buckets[b]
	if k.full&(1<<b) == 0 {
		k.full |= 1 << b
		bk.head, bk.tail, bk.min = i, i, at
		return
	}
	k.arena[bk.tail].next = i
	bk.tail = i
	if at < bk.min {
		bk.min = at
	}
}

// pop removes and returns the earliest pending event, which is in bucket b,
// the lowest non-empty one.
func (k *Kernel) pop(b int) evIdx {
	if b > 0 {
		bk := &k.buckets[b]
		k.full &^= 1 << b
		k.last = bk.min
		for i, tail := bk.head, bk.tail; ; {
			next := k.arena[i].next
			k.file(i, k.arena[i].at)
			if i == tail {
				break
			}
			i = next
		}
	}
	bk := &k.buckets[0]
	i := bk.head
	if i == bk.tail {
		k.full &^= 1
	} else {
		bk.head = k.arena[i].next
	}
	return i
}

// outcome is how a call of drive ended.
type outcome int

const (
	drained   outcome = iota // nothing left to fire: queue empty, or its head is beyond the RunUntil deadline
	wokeSelf                 // popped the driving process's own wake-up: it is running again, on this stack
	handedOff                // popped another process's wake-up and left that process in k.handoff
)

// drive is the run loop. It pops and fires events in time order, ties in
// scheduling order, on the calling stack: the Run/RunUntil caller's (self ==
// nil) or that of a process that has just blocked. Callbacks and Actions run
// inline, in handler context (k.running is nil, whichever stack this is). A
// wake-up of self, popped or made in place by a handler (resume), ends the
// loop with no switch at all; a wake-up of another process ends it with that
// process in k.handoff, for the Run/RunUntil caller to resume (see run).
//
// The earliest time is read before the refill that would move last to it,
// so a run that stops at its deadline leaves last behind the clock. The
// arena slot is freed before the payload runs, so events scheduled from
// inside it can reuse the slot; the fields needed are copied out first.
func (k *Kernel) drive(self *Proc) outcome {
	for k.full != 0 {
		b := bits.TrailingZeros64(k.full)
		at := k.buckets[b].min
		if k.bounded && at > k.deadline {
			break
		}
		i := k.pop(b)
		ev := &k.arena[i]
		fn, p, act := ev.fn, ev.p, ev.act
		ev.fn, ev.p, ev.act = nil, nil, nil
		k.freeL = append(k.freeL, i)
		k.now = at
		for k.tick != nil && at >= k.tickAt {
			k.tickAt = k.tick(at)
		}
		k.stats.Fired++
		if p == nil {
			if act != nil {
				act.Fire(at)
			} else {
				fn()
			}
			if p = k.resumed; p == nil {
				continue
			}
			k.resumed = nil
		}
		k.stats.Wakeups++
		p.state = procRunning
		k.running = p
		if p == self {
			k.stats.SelfWakeups++
			return wokeSelf
		}
		k.handoff = p
		return handedOff
	}
	return drained
}

// resume wakes the blocked process p in place, from a handler: drive runs
// it once the handler returns, as if the handler's event had been p's
// wake-up, so it fires no event of its own (see Busy.Resume).
func (k *Kernel) resume(p *Proc) {
	if k.running != nil || p.state != procBlocked || k.resumed != nil {
		panic(fmt.Sprintf("sim: resume of proc %q outside a handler, or of one not blocked", p.name))
	}
	k.resumed = p
}

// driveOn runs the loop on p's own stack, after p has blocked. A handler
// that panics here must not unwind through p's frames — a body that recovers
// would swallow a panic it merely happened to be executing — so it is caught
// and stored on the kernel; p then yields like one that found nothing to
// fire, and the caller re-raises it.
func (k *Kernel) driveOn(p *Proc) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			k.failure = k.panicError(r, nil)
			o = drained
		}
	}()
	return k.drive(p)
}

// PanicError is the value Run and RunUntil panic with when code running
// inside the simulation panics: it says where the panic came from and keeps
// the original value and stack. Its text contains the original's.
type PanicError struct {
	Proc  string // the process whose body panicked; "" for an event handler
	At    Time   // virtual time of the panic
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine, taken where it was recovered
}

func (e *PanicError) Error() string {
	if e.Proc == "" {
		return fmt.Sprintf("sim: panic in an event handler at t=%v: %v", e.At, e.Value)
	}
	return fmt.Sprintf("sim: panic in proc %q at t=%v: %v", e.Proc, e.At, e.Value)
}

// Unwrap returns the original panic value when it was an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// panicError wraps a recovered value; it must be called from the deferred
// function that recovered it, while the panicking frames are still on the
// stack. p is the process whose body panicked, nil for a handler.
func (k *Kernel) panicError(r any, p *Proc) *PanicError {
	if e, ok := r.(*PanicError); ok {
		return e
	}
	e := &PanicError{At: k.now, Value: r, Stack: debug.Stack()}
	if p != nil {
		e.Proc = p.name
	}
	return e
}

// Spawn creates a new simulated process that will begin executing fn at the
// current virtual time. fn runs as a coroutine: on its own stack, but only
// between a resume by the Run/RunUntil caller and its next yield.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	if k.dead {
		panic("sim: Spawn on a kernel after Shutdown")
	}
	p := &Proc{k: k, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer p.exit()
		p.yield = yield
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.live++
	k.scheduleProc(k.now, p)
	return p
}

// errShutdown is the sentinel a process parked in block panics with when
// Shutdown stops its coroutine; Proc.exit recovers it and unwinds cleanly.
var errShutdown = errors.New("sim: kernel shut down")

// Shutdown unwinds every process that has not finished: stopping a parked
// process's coroutine makes its yield return false, and it unwinds via a
// sentinel panic that its Spawn wrapper recovers; a spawned-but-never-started
// process ends without running its body. Without it, a kernel abandoned with
// blocked processes (deadlock reports, RunUntil stopping early) leaks one
// parked goroutine per process for the life of the OS process — benchmark
// sweeps build thousands of kernels, so bench/test helpers call Shutdown on
// every kernel they retire.
//
// Shutdown must be called from outside the kernel (not from a process or
// handler). Afterwards the kernel is dead: Spawn, Run, RunUntil, and every
// scheduling call panic, so no pooled arena slot, parked wakeup, or SetTick
// observer can be reused or fired by a stale reference to a retired kernel.
func (k *Kernel) Shutdown() {
	if k.running != nil {
		panic("sim: Shutdown called from inside the simulation")
	}
	for _, p := range k.procs {
		if p.state == procDone {
			continue
		}
		p.stop()
		if p.state != procDone { // never started: its exit never ran
			p.done()
		}
	}
	k.dead = true
	k.reraise()
}

// reraise panics, on the caller's goroutine, with a panic that was caught
// on a process's stack.
func (k *Kernel) reraise() {
	if e := k.failure; e != nil {
		k.failure = nil
		panic(e)
	}
}

// collectDeadlocked records the processes that are blocked with no pending
// event left to wake them.
func (k *Kernel) collectDeadlocked() {
	if k.live == 0 {
		return
	}
	for _, p := range k.procs {
		if p.state == procBlocked {
			k.Deadlocked = append(k.Deadlocked, p)
		}
	}
}

// run drives the loop from the Run/RunUntil caller's goroutine until there
// is nothing more to fire and returns the number of events fired. It is the
// only place a process is resumed: one that blocks and pops another's wake-up
// yields here with that process in k.handoff, so a wake-up costs two
// coroutine switches and never enters the Go scheduler. A process that
// returns control with k.handoff nil has failed, finished, or found nothing
// left to fire: k.failure and the caller's own drive tell which. Every panic
// raised inside the simulation leaves it as a *PanicError on the caller's
// goroutine.
func (k *Kernel) run(deadline Time, bounded bool) int {
	k.Deadlocked = nil
	k.deadline, k.bounded = deadline, bounded
	start := k.stats.Fired
	defer func() {
		if r := recover(); r != nil {
			panic(k.panicError(r, nil))
		}
	}()
	for k.failure == nil && k.drive(nil) == handedOff {
		for p := k.handoff; p != nil; p = k.handoff {
			k.handoff = nil
			k.stats.Handoffs++
			p.next()
		}
	}
	k.reraise()
	return int(k.stats.Fired - start)
}

// Run executes events until the queue is empty or until all processes have
// finished. It returns the final virtual time. If processes remain blocked
// with no pending events, they are reported in k.Deadlocked. A panic in a
// process body or an event handler is re-raised here as a *PanicError.
func (k *Kernel) Run() Time {
	if k.dead {
		panic("sim: Run on a kernel after Shutdown")
	}
	k.run(0, false)
	k.collectDeadlocked()
	return k.now
}

// RunUntil executes events with timestamps <= deadline, then stops. Pending
// events beyond the deadline remain queued; the clock is advanced to the
// deadline. It returns the number of events fired. Like Run, it populates
// k.Deadlocked when it drains the whole queue (not merely reaches the
// deadline) with blocked processes remaining.
func (k *Kernel) RunUntil(deadline Time) int {
	if k.dead {
		panic("sim: RunUntil on a kernel after Shutdown")
	}
	fired := k.run(deadline, true)
	if k.now < deadline {
		k.now = deadline
		for k.tick != nil && k.now >= k.tickAt {
			k.tickAt = k.tick(k.now)
		}
	}
	if k.Pending() == 0 {
		k.collectDeadlocked()
	}
	return fired
}

// SetTick installs the kernel's sampling hook: fn fires the first time the
// clock reaches `first` (before the event at that timestamp is dispatched)
// and returns the next firing time. The hook observes — it must not
// schedule work — so installing it cannot move any simulated timestamp.
// When the clock jumps across several firing times in one step, fn is
// invoked repeatedly within that step until its returned time is in the
// future, so fixed-width samplers see every bucket boundary exactly once;
// fn must therefore advance its returned time on every call. A nil fn
// uninstalls the hook.
func (k *Kernel) SetTick(first Time, fn func(Time) Time) {
	k.tick, k.tickAt = fn, first
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.arena) - len(k.freeL) }

// Live reports the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }
