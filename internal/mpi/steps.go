package mpi

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// A rank's MPI progress runs as steps of its busy-until clock, not on its
// stack. Every MPI call does the same thing (do): it sets what the call is
// — the requests to post, the condition to wait for, the rounds of a
// collective — as data on the rank, and runs it inline until its first
// costed action: a match, a copy, a work request's post, a registration
// attempt. That action schedules the rank's next step at the instant its
// cost is paid, where the process used to wake from a sleep, and the
// process parks. A call that waits and finds nothing to do parks the step
// on the rank's inbox condition, where the process used to wait. The step
// that ends the call resumes the process in place, at its own instant.
//
// So progress happens only inside an MPI call (Section II-A), and that is
// checked: a step scheduled by a call fires while the call lasts, and one
// firing outside a call panics.

// steps is the rank's progress state: the call in progress and where it
// stands, and the costed action whose cost is being paid.
type steps struct {
	clk sim.Busy // rankStep is its step

	// The requests to post, in order: the records of slab (an Ialltoall's),
	// then those of list (pair's, or an Ibcast's sends); qi counts the
	// posted ones. They are a call's own, or those a collective schedule
	// posts as it advances.
	slab []Request
	list []*Request

	// The polled packets a progress pass is dispatching.
	pkts []*verbs.Packet

	// The wait condition: every request of wreqs and wcoll done. pair backs
	// wreqs and list: a call's one request, or a barrier round's two.
	wreqs []*Request
	wcoll *CollRequest
	pair  [2]*Request

	// A collective's operands: a Barrier's or Bcast's communicator, tag,
	// buffer and size, root, and the mask of its next round (for a barrier,
	// the offset to the next peer); for the copy of the rank's own block, a
	// source (src) and a destination (addr) of size bytes.
	rc                    *Comm
	addr, src             mem.Addr
	size, tag, root, mask int

	// The costed action in progress: the request and message it serves,
	// the rendezvous record it reads into or FINs, the work request being
	// posted and the registration being attempted.
	cur  *Request
	msg  *inMsg
	v    *rndv
	post verbs.Post
	reg  verbs.Reg

	// How far the pass has got in the FINs, the shared-memory arrivals or
	// the packets it drained, or in the collective schedules; qi counts the
	// posted requests.
	i, qi  int32
	call   callKind
	phase  phase
	inCall bool // the rank's process is inside an MPI call
	acted  bool // the progress pass dispatched or posted something
}

// callKind is what a call does once its requests are posted.
type callKind uint8

const (
	callNone    callKind = iota // no call, or the call is over
	callPost                    // nothing more: Isend, Irecv, the nonblocking collectives
	callTest                    // one progress pass: Test, TestColl
	callWait                    // progress until the wait condition holds: Wait, WaitAll, WaitColl
	callBarrier                 // dissemination rounds, each a send and a receive waited for
	callBcast                   // binomial-tree rounds, a receive or a send waited for each
)

// phase is where a call stands.
type phase uint8

const (
	phOwn      phase = iota // copy the rank's own block (Ialltoall, Iallgather)
	phPost                  // post the queued requests
	phDeferred              // post the FINs of rendezvous reads that have landed
	phShm                   // dispatch the shared-memory arrivals
	phInbox                 // dispatch the polled packets
	phColls                 // advance the collective schedules
)

// do runs a call of kind k from phase ph: inline until its first costed
// action or wait, then as steps, the process parked until the last one.
func (r *Rank) do(k callKind, ph phase) {
	r.inCall, r.call, r.phase, r.acted = true, k, ph, false
	r.run()
	if r.call != callNone {
		r.clk.Hold(r.proc)
	}
	r.inCall, r.wreqs, r.wcoll = false, nil, nil
}

// rankStep is the rank's step: it settles the costed action the last step
// paid for, carries the call on, and resumes the process once it is over.
type rankStep Rank

func (st *rankStep) Fire(now sim.Time) {
	r := (*Rank)(st)
	if !r.inCall {
		panic(fmt.Sprintf("mpi: %s: a progress step fired outside an MPI call", r.entity))
	}
	if r.clk.Settle(now) {
		return
	}
	r.run()
	if r.call == callNone {
		r.clk.Resume(r.proc)
	}
}

// run carries the call on from where it stands until a costed action, a
// wait on the inbox, or the call's end.
func (r *Rank) run() {
	for r.call != callNone {
		switch r.phase {
		case phOwn:
			r.phase = phPost
			r.clk.Charge(r.w.Cl.CopyCost(r.size), (*ownCopied)(r))
			return
		case phPost:
			if r.postQueued() {
				return
			}
			if r.call == callPost {
				r.call = callNone
			} else {
				r.pass()
			}
		case phDeferred:
			// deferred and shmIn alternate with a spare buffer, as the
			// verbs inbox does: what arrived is swapped into drained
			// (shmDrained) and worked through there while handlers fill
			// the other.
			if int(r.i) < len(r.drained) {
				r.i++
				r.fin(r.drained[r.i-1])
				return
			}
			if len(r.drained) > 0 {
				clear(r.drained)
				r.drained, r.acted = r.drained[:0], true
			}
			if len(r.deferred) > 0 {
				r.drained, r.deferred, r.i = r.deferred, r.drained, 0
				continue
			}
			r.phase = phShm
			if len(r.shmIn) > 0 {
				r.shmDrained, r.shmIn, r.i = r.shmIn, r.shmDrained, 0
			}
		case phShm:
			if int(r.i) < len(r.shmDrained) {
				r.i++
				r.dispatch(r.shmDrained[r.i-1])
				return
			}
			if len(r.shmDrained) > 0 {
				clear(r.shmDrained)
				r.shmDrained, r.acted = r.shmDrained[:0], true
			}
			r.phase, r.pkts, r.i = phInbox, r.site.Ctx.PollInbox(), 0
		case phInbox:
			if int(r.i) < len(r.pkts) {
				pkt := r.pkts[r.i]
				r.i++
				m := pkt.Payload.(*inMsg)
				r.w.Cl.Reg.PutPacket(pkt)
				r.dispatch(m)
				return
			}
			if len(r.pkts) > 0 {
				r.acted = true
			}
			r.pkts = nil
			if r.acted {
				r.pass()
			} else {
				r.phase, r.i = phColls, 0
			}
		case phColls:
			if r.advanceColls() || r.passed() {
				return
			}
		}
	}
}

// pass starts a progress pass: drain what has arrived, round after round
// until a round finds nothing, then advance the collective schedules.
func (r *Rank) pass() { r.phase, r.acted = phDeferred, false }

// postQueued posts the queued requests in order, and reports whether a
// costed action cut it.
func (r *Rank) postQueued() bool {
	for r.queued() {
		q := int(r.qi)
		r.qi++
		if q < len(r.slab) {
			r.start(&r.slab[q])
		} else {
			r.start(r.list[q-len(r.slab)])
		}
		if r.clk.Charged() {
			return true
		}
	}
	r.slab, r.list, r.qi = nil, nil, 0
	return false
}

// queued reports whether requests are left to post.
func (r *Rank) queued() bool { return int(r.qi) < len(r.slab)+len(r.list) }

// advanceColls advances each active collective schedule once — a schedule
// that posts requests is advanced again once they are posted — and drops
// the finished ones. It reports whether a costed action cut it.
func (r *Rank) advanceColls() bool {
	for int(r.i) < len(r.colls) {
		if r.postQueued() {
			return true
		}
		c := r.colls[r.i]
		if !c.done && c.advance() {
			c.done = true
			if c.reqs != nil {
				r.a2aSlabs = append(r.a2aSlabs, c.reqs)
				c.reqs = nil
			}
		}
		switch {
		case r.queued():
		case c.done:
			r.colls = append(r.colls[:r.i], r.colls[r.i+1:]...)
		default:
			r.i++
		}
	}
	return false
}

// passed ends a progress pass: a Test is over; a call whose wait
// condition holds ends or goes on to its next round; one whose condition
// does not hold passes again while there is work, and otherwise parks on
// the inbox. It reports whether the call parked.
func (r *Rank) passed() bool {
	switch {
	case r.call == callTest:
		r.call = callNone
	case r.holds():
		r.next()
	default:
		r.pass()
		if r.idle() {
			r.clk.Park(&r.site.Ctx.InboxCond)
			return true
		}
	}
	return false
}

// idle reports that no work is available without blocking.
func (r *Rank) idle() bool {
	return len(r.deferred) == 0 && len(r.shmIn) == 0 && r.site.Ctx.InboxLen() == 0
}

// holds reports whether the wait condition holds.
func (r *Rank) holds() bool {
	for _, q := range r.wreqs {
		if !q.done {
			return false
		}
	}
	return r.wcoll == nil || r.wcoll.done
}

// next goes on once the wait condition holds: a Barrier or Bcast to its
// next round, if it has one; otherwise the call is over.
func (r *Rank) next() {
	more := false
	switch r.call {
	case callBarrier:
		more = r.barrierRound()
	case callBcast:
		r.w.freeReq(r.pair[0])
		more = r.bcastRound()
	}
	if !more {
		r.call = callNone
	}
}

// postOne fills req (see Request.set) as the one request to post, and the
// one to wait for if the call waits.
func (r *Rank) postOne(req *Request, recv bool, addr mem.Addr, size, peer, tag int) {
	req.set(recv, addr, size, peer, tag)
	r.pair[0] = req
	r.list, r.wreqs = r.pair[:1], r.pair[:1]
}

// set fills q for a send (or a receive) of [addr, addr+size) to (from)
// peer with tag, not yet posted.
func (q *Request) set(recv bool, addr mem.Addr, size, peer, tag int) {
	*q = Request{isRecv: recv, addr: addr, size: size, peer: peer, tag: tag}
}

// wait runs a call that waits until every request of reqs and c (if not
// nil) are done.
func (r *Rank) wait(reqs []*Request, c *CollRequest) {
	r.wreqs, r.wcoll = reqs, c
	r.do(callWait, phDeferred)
}

// The named types below are the rank's completions and continuations: each
// is *Rank under another name, so handing one to the clock allocates
// nothing.

// issue completes a paid-for post: the work request goes to the HCA.
type issue Rank

func (i *issue) Fire(sim.Time) { (*Rank)(i).issue() }

func (r *Rank) issue() {
	p := r.post
	r.post = verbs.Post{}
	p.Issue()
}

// ownCopied copies the rank's own block once the copy is paid for.
type ownCopied Rank

func (o *ownCopied) Fire(sim.Time) {
	r := (*Rank)(o)
	sp := r.site.Space
	if d := sp.ReadAt(r.src, r.size); d != nil {
		sp.WriteAt(r.addr, d, r.size)
	}
}
