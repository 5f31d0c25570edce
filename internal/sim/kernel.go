package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
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

// event is one arena slot: a scheduled callback, a timed callback, a parked
// process waiting to be dispatched, or a pooled Action. Exactly one of
// fn/fnT/p/act is set. Events with equal timestamps fire in scheduling order
// (seq), which makes runs deterministic.
//
// Events live in the kernel's arena (a value slice indexed by evIdx) and are
// recycled through a free list, so steady-state scheduling allocates
// nothing: no per-event heap object and no interface{} boxing, unlike the
// container/heap implementation this replaced.
type event struct {
	at  Time
	seq uint64
	fn  func()     // plain callback (handler context)
	fnT func(Time) // timed callback; receives the firing time
	p   *Proc      // parked process to wake
	act Action     // pooled deliverable; receives the firing time
}

// evIdx indexes the event arena. int32 keeps the heap slice compact; two
// billion simultaneously-pending events is far beyond any plausible run.
type evIdx = int32

// heapArity is the fan-out of the event min-heap. A 4-ary heap does the same
// number of comparisons per level as binary on sift-down but halves the tree
// depth, which wins on the pop-heavy DES workload (every event is popped
// exactly once).
const heapArity = 4

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
	seq uint64

	arena []event // event storage; slots are recycled via freeList
	freeL []evIdx // free slots in arena
	heap  []evIdx // min-heap of pending events ordered by (at, seq)

	procs   []*Proc
	live    int   // spawned but not finished
	running *Proc // process currently executing, nil in handler context
	dead    bool  // set by Shutdown; the kernel accepts no further work

	// The current Run/RunUntil, kept here so that whichever stack runs the
	// loop applies it. handoff is the process a blocked process wants resumed
	// in its place, set just before it yields to the caller; failure is a
	// panic caught on a process's stack, waiting for the caller to re-raise it.
	handoff  *Proc
	deadline Time
	bounded  bool
	failure  *PanicError
	stats    Stats

	// tick, when set, fires whenever the clock reaches tickAt: it runs
	// after the clock advances but before the event at that timestamp is
	// dispatched, and returns the next time it wants to fire. It is a pure
	// observer — it must not schedule events or consume virtual time — and
	// exists so samplers (the telemetry recorder) can close fixed-width
	// virtual-time buckets without injecting events into the heap, which
	// would perturb seq numbering and break bit-identical timings.
	tick   func(Time) Time
	tickAt Time

	// Deadlocked is filled by Run when it returns with processes still
	// blocked and no events pending.
	Deadlocked []*Proc
}

// Stats are exact counters of what the run loop has done since NewKernel.
type Stats struct {
	Fired       uint64 // events popped and fired, of every kind
	Wakeups     uint64 // of those, process wake-ups delivered
	SelfWakeups uint64 // wake-ups popped by the process they wake: no switch
	Handoffs    uint64 // coroutine resumes by the run loop: Wakeups - SelfWakeups
}

// Stats returns the run-loop counters.
func (k *Kernel) Stats() Stats { return k.stats }

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

// AtCall schedules fn to run at now+delay in handler context, passing the
// firing time. It exists so completion callbacks with a (Time) parameter can
// be scheduled directly — `k.AtCall(d, op.OnComplete)` — instead of through
// a `func() { op.OnComplete(k.Now()) }` wrapper that allocates a closure per
// operation. A negative delay is treated as zero.
func (k *Kernel) AtCall(delay Time, fn func(Time)) {
	if delay < 0 {
		delay = 0
	}
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.fnT = k.now+delay, k.seq, fn
	k.hpush(i)
}

// AtAction schedules a pooled deliverable at now+delay (see Action). The
// event slot stores the interface value directly, so scheduling a pointer-
// typed Action allocates nothing. A negative delay is treated as zero.
func (k *Kernel) AtAction(delay Time, a Action) {
	if delay < 0 {
		delay = 0
	}
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.act = k.now+delay, k.seq, a
	k.hpush(i)
}

func (k *Kernel) schedule(at Time, fn func()) {
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.fn = at, k.seq, fn
	k.hpush(i)
}

// scheduleProc schedules a wake-up of p at the given time. This is the
// allocation-free fast path for Sleep and condition wakeups: the event
// carries the process pointer itself, so no per-wakeup closure is created.
func (k *Kernel) scheduleProc(at Time, p *Proc) {
	i := k.slot()
	ev := &k.arena[i]
	k.seq++
	ev.at, ev.seq, ev.p = at, k.seq, p
	k.hpush(i)
}

// slot returns a free arena index, growing the arena only when the free
// list is empty (steady state reuses slots and allocates nothing).
func (k *Kernel) slot() evIdx {
	if k.dead {
		panic("sim: schedule on a kernel after Shutdown")
	}
	if n := len(k.freeL); n > 0 {
		i := k.freeL[n-1]
		k.freeL = k.freeL[:n-1]
		return i
	}
	k.arena = append(k.arena, event{})
	return evIdx(len(k.arena) - 1)
}

// less orders heap entries by (at, seq).
func (k *Kernel) less(a, b evIdx) bool {
	ea, eb := &k.arena[a], &k.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// hpush adds an event index to the heap and restores the invariant.
func (k *Kernel) hpush(i evIdx) {
	h := append(k.heap, i)
	k.heap = h
	c := len(h) - 1
	for c > 0 {
		parent := (c - 1) / heapArity
		if !k.less(h[c], h[parent]) {
			break
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
}

// hpop removes and returns the minimum of the heap.
func (k *Kernel) hpop() evIdx {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	k.heap = h
	// Sift down.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.less(h[c], h[best]) {
				best = c
			}
		}
		if !k.less(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// outcome is how a call of drive ended.
type outcome int

const (
	drained   outcome = iota // nothing left to fire: heap empty, or its head is beyond the RunUntil deadline
	wokeSelf                 // popped the driving process's own wake-up: it is running again, on this stack
	handedOff                // popped another process's wake-up and left that process in k.handoff
)

// drive is the run loop. It pops and fires events in (at, seq) order on the
// calling stack: the Run/RunUntil caller's (self == nil) or that of a process
// that has just blocked. Callbacks and Actions run inline, in handler context
// (k.running is nil, whichever stack this is). A wake-up of self ends the
// loop with no switch at all; a wake-up of another process ends it with that
// process in k.handoff, for the Run/RunUntil caller to resume (see run).
//
// The arena slot is freed before the payload runs, so events scheduled from
// inside it can reuse the slot; the fields needed are copied out first. This
// is the one place events are popped, so it is where the corruption every
// run must catch — an event scheduled in the past — panics.
func (k *Kernel) drive(self *Proc) outcome {
	for len(k.heap) > 0 {
		if k.bounded && k.arena[k.heap[0]].at > k.deadline {
			break
		}
		i := k.hpop()
		ev := &k.arena[i]
		at, fn, fnT, p, act := ev.at, ev.fn, ev.fnT, ev.p, ev.act
		if at < k.now {
			panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", at, k.now))
		}
		ev.fn, ev.fnT, ev.p, ev.act = nil, nil, nil, nil
		k.freeL = append(k.freeL, i)
		k.now = at
		for k.tick != nil && at >= k.tickAt {
			k.tickAt = k.tick(at)
		}
		k.stats.Fired++
		switch {
		case p != nil:
			if p.state >= procKilled {
				continue
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
		case fnT != nil:
			fnT(at)
		case act != nil:
			act.Fire(at)
		default:
			fn()
		}
	}
	return drained
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
	p := &Proc{k: k, id: len(k.procs), name: name}
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
// blocked processes (deadlock reports, RunUntil stopping early, daemons
// whose wakeup never came) leaks one parked goroutine per process for the
// life of the OS process — benchmark sweeps build thousands of kernels, so
// bench/test helpers call Shutdown on every kernel they retire.
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

// collectDeadlocked records non-daemon processes that are blocked with no
// pending event left to wake them.
func (k *Kernel) collectDeadlocked() {
	if k.live == 0 {
		return
	}
	for _, p := range k.procs {
		if p.state == procBlocked && !p.daemon {
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
// deadline. It returns the number of events fired. Like Run, it panics on
// events scheduled in the past, and populates k.Deadlocked when it drains
// the whole queue (not merely reaches the deadline) with blocked non-daemon
// processes remaining.
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
func (k *Kernel) Pending() int { return len(k.heap) }

// Live reports the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }
