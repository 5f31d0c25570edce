package mpi

import "repro/internal/mem"

// CollRequest is a nonblocking-collective handle. Its schedule advances only
// inside MPI calls (Test/Wait and every other call that progresses) — the
// host-based baseline behaviour the paper measures against. The schedule is
// data, advanced by advance: no call builds a closure.
type CollRequest struct {
	done bool
	kind collKind

	reqs []Request // Ialltoall: its request slab, back to the rank once done
	next int       // Ialltoall: the first request the last check found pending

	// Iallgather and Ibcast: the rank, the buffer, the block size and the
	// tag; Iallgather's ring step; Ibcast's root, the mask it receives at
	// (0 at the root) and whether it has posted its sends.
	r      *Rank
	addr   mem.Addr
	size   int
	tag    int
	step   int
	root   int
	mask   int
	posted bool
	pair   [2]*Request // Iallgather: the step's send and receive; Ibcast: the receive from the parent
	sends  []*Request  // Ibcast: the sends to the children
}

// collKind is the schedule a CollRequest follows.
type collKind uint8

const (
	collNone      collKind = iota // nothing to do: a collective of one rank
	collAlltoall                  // all transfers posted up front; done when all are
	collAllgather                 // a ring, one step posted when the last is done
	collBcast                     // a binomial tree, forwarding once received
)

func (r *Rank) addColl(c *CollRequest) *CollRequest {
	r.colls = append(r.colls, c)
	return c
}

// advance advances the schedule and reports whether it is complete. A
// schedule that queues requests to post reports false and is advanced
// again once they are posted.
func (c *CollRequest) advance() bool {
	switch c.kind {
	case collAlltoall:
		// A request never comes undone, so each check resumes at the
		// first one the last check found pending.
		for ; c.next < len(c.reqs); c.next++ {
			if !c.reqs[c.next].done {
				return false
			}
		}
	case collAllgather:
		if !c.pair[0].done || !c.pair[1].done {
			return false
		}
		c.step++
		if c.step < c.r.Size()-1 {
			c.postRing()
			return false
		}
	case collBcast:
		if rq := c.pair[0]; rq != nil && !rq.done {
			return false
		}
		if !c.posted && c.postSends() {
			return false
		}
		for _, q := range c.sends {
			if !q.done {
				return false
			}
		}
	}
	return true
}

// WaitColl blocks until the collective completes.
func (r *Rank) WaitColl(c *CollRequest) {
	t0 := r.enter()
	r.wait(nil, c)
	r.leave(t0)
}

// TestColl progresses once and reports completion.
func (r *Rank) TestColl(c *CollRequest) bool {
	t0 := r.enter()
	r.do(callTest, phDeferred)
	r.leave(t0)
	return c.done
}

// Ialltoall starts a nonblocking personalized all-to-all over the world
// communicator: per bytes from sendAddr+dst*per to each dst's
// recvAddr+me*per. Completion requires further MPI calls.
func (r *Rank) Ialltoall(sendAddr, recvAddr mem.Addr, per int) *CollRequest {
	return r.Comm().Ialltoall(sendAddr, recvAddr, per)
}

// Iallgather starts a nonblocking ring allgather: per bytes from sendAddr
// land in every rank's recvAddr+src*per. Each forwarding step depends on
// the previous step's receive, so the schedule advances only as the CPU
// re-enters the library — the ordered-pattern limitation of Section II-A.
func (r *Rank) Iallgather(sendAddr, recvAddr mem.Addr, per int) *CollRequest {
	c := r.addColl(&CollRequest{r: r, addr: recvAddr, size: per, tag: r.nextCollTag()})
	r.src, r.addr, r.size = sendAddr, recvAddr+mem.Addr(r.rank*per), per
	if r.Size() > 1 {
		c.kind = collAllgather
		c.postRing()
	}
	r.do(callPost, phOwn)
	return c
}

// postRing queues the ring step's send to the right neighbour and receive
// from the left one.
func (c *CollRequest) postRing() {
	r := c.r
	np, me := r.Size(), r.rank
	blkSend := (me - c.step + np) % np
	blkRecv := (me - c.step - 1 + np) % np
	c.pair = [2]*Request{r.w.reqs.Get(), r.w.reqs.Get()}
	c.pair[0].set(false, c.addr+mem.Addr(blkSend*c.size), c.size, (me+1)%np, c.tag)
	c.pair[1].set(true, c.addr+mem.Addr(blkRecv*c.size), c.size, (me-1+np)%np, c.tag)
	r.list = c.pair[:]
}

// Ibcast starts a nonblocking binomial-tree broadcast from root. Interior
// ranks forward to their children only after their own receive completes —
// and only when the CPU re-enters the library, the ordering limitation
// (Section II-A) that caps this baseline's overlap.
func (r *Rank) Ibcast(addr mem.Addr, size, root int) *CollRequest {
	tag := r.nextCollTag()
	np := r.Size()
	c := r.addColl(&CollRequest{r: r})
	if np == 1 {
		return c
	}
	*c = CollRequest{kind: collBcast, r: r, addr: addr, size: size, tag: tag, root: root}
	rel := (r.rank - root + np) % np
	// The mask level at which this rank receives from its parent.
	for mask := 1; mask < np; mask <<= 1 {
		if rel&mask != 0 {
			c.mask = mask
			break
		}
	}
	if c.mask != 0 {
		c.pair[0] = r.w.reqs.Get()
		c.pair[0].set(true, addr, size, (rel-c.mask+root)%np, tag)
		r.list = c.pair[:1]
	} else {
		c.postSends()
	}
	r.do(callPost, phPost)
	return c
}

// postSends queues the sends to the rank's children, largest subtree
// first, and reports whether there are any.
func (c *CollRequest) postSends() bool {
	r := c.r
	np := r.Size()
	rel := (r.rank - c.root + np) % np
	start := c.mask >> 1
	if c.mask == 0 { // root: start at the top level
		m := 1
		for m < np {
			m <<= 1
		}
		start = m >> 1
	}
	for mask := start; mask > 0; mask >>= 1 {
		if rel+mask < np {
			q := r.w.reqs.Get()
			q.set(false, c.addr, c.size, (rel+mask+c.root)%np, c.tag)
			c.sends = append(c.sends, q)
		}
	}
	c.posted, r.list = true, c.sends
	return len(c.sends) > 0
}
