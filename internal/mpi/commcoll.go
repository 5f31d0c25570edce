package mpi

import "repro/internal/mem"

// Communicator-scoped collectives: the one implementation of Barrier, Bcast
// and Ialltoall. The world-level operations on Rank call these on the world
// communicator; ranks and message peers are translated through Comm.World.

// Barrier blocks until all communicator members have entered
// (dissemination).
func (c *Comm) Barrier() {
	r := c.r
	t0 := r.enter()
	defer r.leave(t0)
	np := c.Size()
	if np == 1 {
		return
	}
	tag := c.nextTag()
	zero := r.scratch(1)
	sq, rq := &r.barReqs[0], &r.barReqs[1]
	for off := 1; off < np; off <<= 1 {
		dst := c.World((c.myIdx + off) % np)
		src := c.World((c.myIdx - off + np) % np)
		r.isend(sq, zero, 0, dst, tag)
		r.irecv(rq, zero, 0, src, tag)
		r.waitFor(func() bool { return sq.done && rq.done })
	}
}

// Bcast broadcasts [addr, addr+size) from comm-rank root (binomial tree).
func (c *Comm) Bcast(addr mem.Addr, size, root int) {
	r := c.r
	t0 := r.enter()
	defer r.leave(t0)
	np := c.Size()
	tag := c.nextTag()
	if np == 1 {
		return
	}
	rel := (c.myIdx - root + np) % np
	mask := 1
	for mask < np {
		if rel&mask != 0 {
			src := c.World((rel - mask + root) % np)
			r.Recv(addr, size, src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < np {
			dst := c.World((rel + mask + root) % np)
			r.Send(addr, size, dst, tag)
		}
		mask >>= 1
	}
}

// Ialltoall starts a nonblocking personalized all-to-all within the
// communicator: per bytes from sendAddr+dst*per (dst in comm ranks) to each
// member's recvAddr+me*per. All point-to-point transfers are posted up front
// (scatter-destination schedule); completion requires further MPI calls.
func (c *Comm) Ialltoall(sendAddr, recvAddr mem.Addr, per int) *CollRequest {
	r := c.r
	tag := c.nextTag()
	np, me := c.Size(), c.myIdx

	self := snapshot(r.site.Space, sendAddr+mem.Addr(me*per), per)
	r.proc.AdvanceBusy(r.w.Cl.CopyCost(per))
	r.site.Space.WriteAt(recvAddr+mem.Addr(me*per), self, per)

	// The requests never leave the collective: one slab holds them all, and
	// progressColls hands it back to the rank once the call is done.
	reqs := r.a2aSlab(2 * (np - 1))
	for i := 1; i < np; i++ {
		src := (me - i + np) % np
		r.irecv(&reqs[i-1], recvAddr+mem.Addr(src*per), per, c.World(src), tag)
	}
	for i := 1; i < np; i++ {
		dst := (me + i) % np
		r.isend(&reqs[np-2+i], sendAddr+mem.Addr(dst*per), per, c.World(dst), tag)
	}
	// A request never comes undone, so each check resumes at the first one
	// the last check found pending.
	cr := &CollRequest{r: r, reqs: reqs}
	cr.step = func() bool {
		for ; cr.next < len(cr.reqs); cr.next++ {
			if !cr.reqs[cr.next].done {
				return false
			}
		}
		return true
	}
	return r.addColl(cr)
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

// Alltoall is the blocking form of Ialltoall.
func (c *Comm) Alltoall(sendAddr, recvAddr mem.Addr, per int) {
	c.r.WaitColl(c.Ialltoall(sendAddr, recvAddr, per))
}
