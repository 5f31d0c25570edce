package sim

import (
	"fmt"
	"testing"
)

// refQueue is the event queue the kernel had before its radix queue: a 4-ary
// min-heap ordered by (at, seq), seq numbering the pushes. FuzzEventOrder
// checks the kernel's firing order against it.
type refQueue struct {
	h   []refEvent
	seq uint64
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (q *refQueue) less(a, b int) bool {
	ea, eb := &q.h[a], &q.h[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (q *refQueue) push(at Time, id int) {
	q.seq++
	q.h = append(q.h, refEvent{at, q.seq, id})
	for c := len(q.h) - 1; c > 0; {
		parent := (c - 1) / 4
		if !q.less(c, parent) {
			break
		}
		q.h[c], q.h[parent] = q.h[parent], q.h[c]
		c = parent
	}
}

func (q *refQueue) pop() refEvent {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	for i := 0; ; {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if q.less(c, best) {
				best = c
			}
		}
		if !q.less(best, i) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// fuzzDelays are the delays a script draws from: 0, 1, and 2^k−1, 2^k and
// 2^k+1 for k up to 40, so that events land in every low bucket and in
// buckets up to bit 40, and refills move last across every power of two.
var fuzzDelays = func() []Time {
	d := []Time{0, 1}
	for k := 1; k <= 40; k++ {
		d = append(d, 1<<k-1, 1<<k, 1<<k+1)
	}
	return d
}()

// orderRig runs a script on a kernel and the reference side by side. Every
// scheduling call is mirrored by a push into ref, with an id; every firing —
// a callback or Action running, a process starting or resuming — pops ref,
// which must yield that id at the kernel's current time.
type orderRig struct {
	k       *Kernel
	ref     refQueue
	clock   Time // the reference's clock
	ids     int
	fired   int
	err     error
	cond    Cond
	waiters []*orderWaiter // cond's waiters, in the order they waited
}

type orderWaiter struct{ id int }

type orderAction struct {
	r  *orderRig
	id int
}

func (a *orderAction) Fire(at Time) { a.r.fire(a.id, at) }

// sched mirrors an event scheduled delay from now and returns its id.
func (r *orderRig) sched(delay Time) int {
	r.ids++
	r.ref.push(r.k.Now()+max(delay, 0), r.ids)
	return r.ids
}

// fire checks that event id, firing at time at, is the reference's next.
func (r *orderRig) fire(id int, at Time) {
	r.fired++
	if r.err != nil {
		return
	}
	if len(r.ref.h) == 0 {
		r.err = fmt.Errorf("firing %d: event %d at %v, reference queue empty", r.fired, id, at)
		return
	}
	e := r.ref.pop()
	if e.id != id || e.at != at || at != r.k.Now() {
		r.err = fmt.Errorf("firing %d: event %d at %v (clock %v), reference: event %d at %v", r.fired, id, at, r.k.Now(), e.id, e.at)
	}
	r.clock = e.at
}

// broadcast wakes every waiter, scheduling one event each, in waiting order.
func (r *orderRig) broadcast() {
	for _, w := range r.waiters {
		w.id = r.sched(0)
	}
	r.waiters = r.waiters[:0]
	r.cond.Broadcast()
}

// chain schedules a callback delay from now that, when it fires, schedules
// a same-instant AtAction of a Func and, while depth lasts, another chain link; odd
// depths also broadcast.
func (r *orderRig) chain(delay Time, depth, arg int) {
	id := r.sched(delay)
	r.k.At(delay, func() {
		r.fire(id, r.k.Now())
		tie := r.sched(0)
		r.k.AtAction(0, Func(func(at Time) { r.fire(tie, at) }))
		if depth > 0 {
			r.chain(fuzzDelays[(arg*31+depth)%len(fuzzDelays)], depth-1, arg)
		}
		if depth%2 == 1 {
			r.broadcast()
		}
	})
}

// spawn starts a process that sleeps, may wait on the rig's Cond, and
// sleeps again.
func (r *orderRig) spawn(d1, d2 Time, wait bool) {
	start := r.sched(0)
	r.k.Spawn("p", func(p *Proc) {
		r.fire(start, p.Now())
		id := r.sched(d1)
		p.Sleep(d1)
		r.fire(id, p.Now())
		if wait {
			w := &orderWaiter{}
			r.waiters = append(r.waiters, w)
			r.cond.Wait(p)
			r.fire(w.id, p.Now())
		}
		id = r.sched(d2)
		p.Sleep(d2)
		r.fire(id, p.Now())
	})
}

// check compares the kernel with the reference after a cut or the final run.
func (r *orderRig) check(what string) error {
	if r.err != nil {
		return fmt.Errorf("%s: %w", what, r.err)
	}
	if r.k.Now() != r.clock || r.k.Pending() != len(r.ref.h) {
		return fmt.Errorf("%s: clock %v with %d pending, reference %v with %d", what, r.k.Now(), r.k.Pending(), r.clock, len(r.ref.h))
	}
	return nil
}

// FuzzEventOrder runs a script of scheduling calls against the kernel and
// against refQueue, the (at, seq) heap the radix queue replaced: the same
// events must fire in the same order at the same times, and after every
// RunUntil cut and the final runs the clock and Pending must agree.
//
// The input is read two bytes at a time, op and arg; arg picks a delay from
// fuzzDelays. op%8: 0 At, 1 AtAction of a Func, 2 AtAction, 3 a chain of op/8%4 further
// callbacks (see chain), 4 Spawn a process sleeping twice (waiting on a Cond
// between its sleeps when op/8 is odd), 5 Broadcast, 6 RunUntil(now+delay),
// 7 At with a negative delay.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		k := NewKernel()
		defer k.Shutdown()
		r := &orderRig{k: k}
		for j := 0; j+1 < len(data); j += 2 {
			op, arg := int(data[j]), int(data[j+1])
			d := fuzzDelays[arg%len(fuzzDelays)]
			switch op % 8 {
			case 0:
				id := r.sched(d)
				k.At(d, func() { r.fire(id, k.Now()) })
			case 1:
				id := r.sched(d)
				k.AtAction(d, Func(func(at Time) { r.fire(id, at) }))
			case 2:
				k.AtAction(d, &orderAction{r, r.sched(d)})
			case 3:
				r.chain(d, op/8%4, arg)
			case 4:
				r.spawn(d, fuzzDelays[(arg*7+op)%len(fuzzDelays)], op/8%2 == 1)
			case 5:
				r.broadcast()
			case 6:
				deadline := k.Now() + d
				k.RunUntil(deadline)
				r.clock = max(r.clock, deadline)
				if err := r.check(fmt.Sprintf("op %d: RunUntil(%v)", j/2, deadline)); err != nil {
					t.Fatal(err)
				}
			case 7:
				id := r.sched(-d - 1)
				k.At(-d-1, func() { r.fire(id, k.Now()) })
			}
		}
		k.Run()
		for len(r.waiters) > 0 { // release every waiter, late ones too
			r.broadcast()
			k.Run()
		}
		if err := r.check("Run"); err != nil {
			t.Fatal(err)
		}
		if k.Pending() != 0 || k.Live() != 0 {
			t.Fatalf("after Run: %d pending, %d live", k.Pending(), k.Live())
		}
	})
}
