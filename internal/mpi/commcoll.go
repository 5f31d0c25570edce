package mpi

import "repro/internal/mem"

// Communicator-scoped collectives: the one implementation of Barrier and
// Ialltoall. The world-level operations on Rank call these on the world
// communicator; ranks and message peers are translated through Comm.World.

// Barrier blocks until all communicator members have entered
// (dissemination): each round sends to the member off ranks ahead and
// receives from the one off ranks behind, and waits for both.
func (c *Comm) Barrier() {
	r := c.r
	t0 := r.enter()
	defer r.leave(t0)
	np := c.Size()
	if np == 1 {
		return
	}
	r.rc, r.tag, r.addr, r.mask = c, c.nextTag(), r.scratch(1), 1
	r.barrierRound() // np > 1
	r.do(callBarrier, phPost)
}

// barrierRound queues the next round of a Barrier and reports whether
// there was one.
func (r *Rank) barrierRound() bool {
	c, off := r.rc, r.mask
	np := c.Size()
	if off >= np {
		return false
	}
	r.mask <<= 1
	r.barReqs[0].set(false, r.addr, 0, c.World((c.myIdx+off)%np), r.tag)
	r.barReqs[1].set(true, r.addr, 0, c.World((c.myIdx-off+np)%np), r.tag)
	r.pair = [2]*Request{&r.barReqs[0], &r.barReqs[1]}
	r.list, r.wreqs, r.phase = r.pair[:], r.pair[:], phPost
	return true
}

// Ialltoall starts a nonblocking personalized all-to-all within the
// communicator: per bytes from sendAddr+dst*per (dst in comm ranks) to each
// member's recvAddr+me*per. All point-to-point transfers are posted up front
// (scatter-destination schedule); completion requires further MPI calls.
func (c *Comm) Ialltoall(sendAddr, recvAddr mem.Addr, per int) *CollRequest {
	r := c.r
	tag := c.nextTag()
	np, me := c.Size(), c.myIdx
	r.src, r.addr, r.size = sendAddr+mem.Addr(me*per), recvAddr+mem.Addr(me*per), per

	// The requests never leave the collective: one slab holds them all, and
	// the schedule hands it back to the rank once the call is done.
	reqs := r.a2aSlab(2 * (np - 1))
	for i := 1; i < np; i++ {
		src := (me - i + np) % np
		reqs[i-1].set(true, recvAddr+mem.Addr(src*per), per, c.World(src), tag)
	}
	for i := 1; i < np; i++ {
		dst := (me + i) % np
		reqs[np-2+i].set(false, sendAddr+mem.Addr(dst*per), per, c.World(dst), tag)
	}
	r.slab = reqs
	cr := r.addColl(CollRequest{kind: collAlltoall, reqs: reqs})
	r.do(callPost, phOwn)
	return cr
}

// a2aSlab returns n request records for one Ialltoall: the slab of the call
// that finished last, or a new one if there is none or it is too small for
// this communicator (it is then dropped).
func (r *Rank) a2aSlab(n int) []Request {
	if k := len(r.a2aSlabs); k > 0 {
		s := r.a2aSlabs[k-1]
		r.a2aSlabs = r.a2aSlabs[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]Request, n)
}
