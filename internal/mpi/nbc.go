package mpi

import "repro/internal/mem"

// CollRequest is a nonblocking-collective handle. Its schedule advances only
// inside MPI calls (Progress/Test/Wait) — the host-based baseline behaviour
// the paper measures against.
type CollRequest struct {
	r    *Rank
	done bool
	step func() bool // advances the schedule; reports completion
	reqs []Request   // Ialltoall: its request slab, back to the rank once done
	next int         // Ialltoall: the first request step may find pending
}

// Done reports completion without progressing.
func (c *CollRequest) Done() bool { return c.done }

func (r *Rank) addColl(c *CollRequest) *CollRequest {
	r.colls = append(r.colls, c)
	return c
}

// progressColls advances all active collective schedules.
func (r *Rank) progressColls() {
	for i := 0; i < len(r.colls); i++ {
		c := r.colls[i]
		if !c.done && c.step() {
			c.done = true
			if c.reqs != nil {
				r.a2aSlabs = append(r.a2aSlabs, c.reqs)
				c.reqs = nil
			}
		}
		if c.done {
			r.colls = append(r.colls[:i], r.colls[i+1:]...)
			i--
		}
	}
}

// WaitColl blocks until the collective completes.
func (r *Rank) WaitColl(c *CollRequest) {
	t0 := r.enter()
	r.waitFor(func() bool { return c.done })
	r.leave(t0)
}

// TestColl progresses once and reports completion.
func (r *Rank) TestColl(c *CollRequest) bool {
	t0 := r.enter()
	r.Progress()
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
	tag := r.nextCollTag()
	np, me := r.Size(), r.rank

	// Own contribution.
	self := snapshot(r.site.Space, sendAddr, per)
	r.proc.AdvanceBusy(r.w.Cl.CopyCost(per))
	r.site.Space.WriteAt(recvAddr+mem.Addr(me*per), self, per)

	c := &CollRequest{r: r}
	if np == 1 {
		c.step = func() bool { return true }
		return r.addColl(c)
	}
	right := (me + 1) % np
	left := (me - 1 + np) % np
	step := 0
	var sq, rq *Request
	post := func() {
		blkSend := (me - step + np) % np
		blkRecv := (me - step - 1 + np) % np
		sq = r.Isend(recvAddr+mem.Addr(blkSend*per), per, right, tag)
		rq = r.Irecv(recvAddr+mem.Addr(blkRecv*per), per, left, tag)
	}
	post()
	c.step = func() bool {
		for sq.done && rq.done {
			step++
			if step >= np-1 {
				return true
			}
			post()
		}
		return false
	}
	return r.addColl(c)
}

// Ibcast starts a nonblocking binomial-tree broadcast from root. Interior
// ranks forward to their children only after their own receive completes —
// and only when the CPU re-enters the library, the ordering limitation
// (Section II-A) that caps this baseline's overlap.
func (r *Rank) Ibcast(addr mem.Addr, size, root int) *CollRequest {
	tag := r.nextCollTag()
	np := r.Size()
	c := &CollRequest{r: r}
	if np == 1 {
		c.step = func() bool { return true }
		return r.addColl(c)
	}

	rel := (r.rank - root + np) % np
	// Parent and the mask level at which this rank receives.
	recvMask := 0
	for mask := 1; mask < np; mask <<= 1 {
		if rel&mask != 0 {
			recvMask = mask
			break
		}
	}
	var rq *Request
	if recvMask != 0 {
		src := (rel - recvMask + root) % np
		rq = r.Irecv(addr, size, src, tag)
	}

	sendsPosted := false
	var sends []*Request
	postSends := func() {
		startMask := recvMask >> 1
		if recvMask == 0 { // root: start at the top level
			m := 1
			for m < np {
				m <<= 1
			}
			startMask = m >> 1
		}
		for mask := startMask; mask > 0; mask >>= 1 {
			if rel+mask < np {
				dst := (rel + mask + root) % np
				sends = append(sends, r.Isend(addr, size, dst, tag))
			}
		}
		sendsPosted = true
	}
	if recvMask == 0 {
		postSends()
	}

	c.step = func() bool {
		if rq != nil && !rq.done {
			return false
		}
		if !sendsPosted {
			postSends()
		}
		for _, q := range sends {
			if !q.done {
				return false
			}
		}
		return true
	}
	return r.addColl(c)
}
