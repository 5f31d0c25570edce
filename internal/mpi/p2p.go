package mpi

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Request is a nonblocking operation handle (MPI_Request). The handle
// Isend or Irecv returns is dead once Wait or WaitAll returns: its record
// goes back to the world's free list, as MPI_Wait sets a handle to
// MPI_REQUEST_NULL. Test and Done release nothing, so a handle that tested
// done may still be waited on; one that is never waited on is left to the
// garbage collector.
type Request struct {
	r      *Rank
	isRecv bool
	addr   mem.Addr
	size   int
	peer   int // destination (send) or source-match (recv, AnySource ok)
	tag    int
	done   bool
	span   span.ID // root span of the operation (0 = untraced)
}

// Done reports completion without progressing (see Test).
func (q *Request) Done() bool { return q.done }

// inMsg is the receive-side view of an incoming message. Records are
// recycled by whoever consumes them (see World.freeMsg): dispatch after a FIN
// or a match, Irecv after matching an unexpected arrival.
type inMsg struct {
	kind     string // "eager", "shm", "rts"
	src      int
	tag      int
	size     int
	data     []byte     // eager payload (nil for size-only buffers)
	buf      []byte     // storage data points into, kept across recycling
	srcSpace *mem.Space // shm: sender's space for the single-copy
	srcAddr  mem.Addr   // shm, rts: source buffer address
	sendReq  *Request   // shm, rts: sender's request to complete
	rkey     verbs.Key  // rts: key for the RDMA read
	srcCtx   *verbs.Ctx // sender's context (FIN destination, wakeups)
	span     span.ID    // sender's root span, carried across the hop
	to       *Rank      // shm: destination whose shared-memory inbox Fire fills
}

// Fire lands an intra-node message in its destination's shared-memory inbox:
// deliverLocal schedules the record itself as the delivery event, so a local
// send builds no closure.
func (m *inMsg) Fire(sim.Time) {
	dst := m.to
	dst.shmIn = append(dst.shmIn, m)
	dst.ctx.InboxCond.Broadcast()
}

// spans returns the cluster's span collector (nil when tracing is off).
func (r *Rank) spans() *span.Collector { return r.w.Cl.Spans }

// startP2PSpan opens an mpi-layer root span for one point-to-point request.
func (r *Rank) startP2PSpan(req *Request, name string, peer int) {
	sp := r.spans()
	if !sp.Enabled() {
		return
	}
	req.span = sp.Start(r.spanParent, span.ClassRank, r.entity, "mpi", name)
	sp.AttrInt(req.span, "peer", int64(peer))
	sp.AttrInt(req.span, "size", int64(req.size))
	sp.AttrInt(req.span, "tag", int64(req.tag))
}

// Isend starts a nonblocking send of [addr, addr+size) to rank dst. The
// handle lives until Wait or WaitAll returns (see Request).
func (r *Rank) Isend(addr mem.Addr, size, dst, tag int) *Request {
	req := r.w.reqs.Get()
	r.isend(req, addr, size, dst, tag)
	return req
}

// isend starts a send whose state lives in req, a record the caller owns and
// may reuse once it is done (Barrier keeps two per rank, Ialltoall reuses a
// slab per rank, Isend takes one from World.reqs).
func (r *Rank) isend(req *Request, addr mem.Addr, size, dst, tag int) {
	*req = Request{r: r, addr: addr, size: size, peer: dst, tag: tag}
	r.startP2PSpan(req, "isend", dst)
	cl := r.w.Cl
	msg := r.w.msgs.Get()
	msg.src, msg.tag, msg.size, msg.srcCtx, msg.span = r.rank, tag, size, r.ctx, req.span
	dstRank := r.w.ranks[dst]

	if dst == r.rank {
		// Self-send: treat as shm with zero latency.
		r.w.mShm.Inc()
		msg.kind = "shm"
		msg.srcSpace, msg.srcAddr, msg.sendReq = r.site.Space, addr, req
		r.deliverLocal(dstRank, msg, 0)
		return
	}

	if r.w.SameNode(r.rank, dst) {
		r.w.mShm.Inc()
		if size <= eagerThreshold {
			// Copy-in/copy-out through a shared-memory slot; the send
			// completes once the copy-in is done.
			r.proc.AdvanceBusy(cl.CopyCost(size))
			msg.kind = "eager"
			msg.copyIn(r.site.Space, addr, size)
			r.deliverLocal(dstRank, msg, cl.Cfg.ShmLatency)
			req.done = true
			r.spans().End(req.span)
		} else {
			// Large intra-node: single copy performed by the receiver at
			// match time; the sender completes when the copy finishes.
			msg.kind = "shm"
			msg.srcSpace, msg.srcAddr, msg.sendReq = r.site.Space, addr, req
			r.deliverLocal(dstRank, msg, cl.Cfg.ShmLatency)
		}
		return
	}

	if size <= eagerThreshold {
		// Eager: payload is copied into a pre-registered bounce buffer and
		// shipped with the header; the buffer is immediately reusable.
		r.w.mEager.Inc()
		r.proc.AdvanceBusy(cl.CopyCost(size))
		msg.kind = "eager"
		msg.copyIn(r.site.Space, addr, size)
		r.ctx.PostSend(r.proc, dstRank.ctx, r.w.packet(size+headerSize, msg, req.span))
		req.done = true
		r.spans().End(req.span)
		return
	}

	// Rendezvous (RGET): register the source buffer (through the IB
	// registration cache) and send an RTS carrying the rkey; the receiver
	// RDMA-reads the data and FINs back. The send completes when the FIN is
	// processed — which requires this process to re-enter the library.
	r.w.mRdv.Inc()
	mr := r.registerCachedCtx(addr, size, req.span)
	msg.kind = "rts"
	msg.srcAddr, msg.rkey, msg.sendReq = addr, mr.RKey(), req
	r.ctx.PostSend(r.proc, dstRank.ctx, r.w.packet(headerSize, msg, req.span))
}

// Irecv starts a nonblocking receive into [addr, addr+size) from src
// (or AnySource) with the given tag (or AnyTag). The handle lives until Wait
// or WaitAll returns (see Request).
func (r *Rank) Irecv(addr mem.Addr, size, src, tag int) *Request {
	req := r.w.reqs.Get()
	r.irecv(req, addr, size, src, tag)
	return req
}

// irecv starts a receive into the caller-owned record req (see isend).
func (r *Rank) irecv(req *Request, addr mem.Addr, size, src, tag int) {
	*req = Request{r: r, isRecv: true, addr: addr, size: size, peer: src, tag: tag}
	r.startP2PSpan(req, "irecv", src)
	// Check the unexpected queue first (arrival before post).
	for i, m := range r.unexpected {
		if matches(req, m) {
			r.unexpected = slices.Delete(r.unexpected, i, i+1)
			r.handleMatch(req, m)
			r.w.freeMsg(m)
			return
		}
	}
	r.posted = append(r.posted, req)
}

// copyIn captures the eager payload at [addr, addr+size) into the record's
// own storage; data stays nil if the buffer is size-only.
func (m *inMsg) copyIn(sp *mem.Space, addr mem.Addr, size int) {
	if d := sp.ReadAt(addr, size); d != nil {
		m.buf = append(m.buf[:0], d...)
		m.data = m.buf
	}
}

// snapshot captures payload bytes if the buffer is backed.
func snapshot(sp *mem.Space, addr mem.Addr, size int) []byte {
	d := sp.ReadAt(addr, size)
	if d == nil {
		return nil
	}
	out := make([]byte, size)
	copy(out, d)
	return out
}

// registerCachedCtx returns an MR for [addr,size), registering on cache
// miss; a miss records the registration under parent (hits record nothing).
func (r *Rank) registerCachedCtx(addr mem.Addr, size int, parent span.ID) *verbs.MR {
	mr, _ := r.regCache.GetOrCreate(0, addr, size, func() *verbs.MR {
		return r.ctx.RegisterMRCtx(r.proc, addr, size, parent)
	})
	return mr
}

// deliverLocal schedules an intra-node (shared-memory) delivery.
func (r *Rank) deliverLocal(dst *Rank, msg *inMsg, latency sim.Time) {
	msg.to = dst
	r.w.Cl.K.AtAction(latency, msg)
}

func matches(req *Request, m *inMsg) bool {
	if !req.isRecv {
		return false
	}
	if req.peer != AnySource && req.peer != m.src {
		return false
	}
	if req.tag != AnyTag && req.tag != m.tag {
		return false
	}
	return true
}

// handleMatch completes the protocol for a matched (request, message) pair.
// Runs in the receiver's process context. The matched-receive latency
// histogram measures match-to-data-landed time: ~the copy for eager/shm,
// the RDMA read for rendezvous.
func (r *Rank) handleMatch(req *Request, m *inMsg) {
	cl := r.w.Cl
	matchedAt := r.proc.Now()
	switch m.kind {
	case "eager":
		r.proc.AdvanceBusy(cl.CopyCost(m.size))
		r.site.Space.WriteAt(req.addr, m.data, m.size)
		req.done = true
		r.w.mRecvLat.Observe(r.proc.Now() - matchedAt)
		r.spans().End(req.span)
	case "shm":
		r.proc.AdvanceBusy(cl.CopyCost(m.size))
		var payload []byte
		if d := m.srcSpace.ReadAt(m.srcAddr, m.size); d != nil {
			payload = d
		}
		r.site.Space.WriteAt(req.addr, payload, m.size)
		req.done = true
		r.w.mRecvLat.Observe(r.proc.Now() - matchedAt)
		r.spans().End(req.span)
		m.sendReq.done = true
		r.spans().End(m.sendReq.span)
		m.srcCtx.InboxCond.Broadcast() // wake the sender if it is waiting
	case "rts":
		// Rendezvous: RDMA-read the payload from the sender's buffer. The
		// read outlives m (recycled when this returns), so a rndv record
		// keeps what its completion and the FIN need.
		v := r.w.rndvs.Get()
		v.r, v.req, v.matchedAt = r, req, matchedAt
		v.srcCtx, v.sendReq, v.sendSpan = m.srcCtx, m.sendReq, m.span
		mr := r.registerCachedCtx(req.addr, req.size, req.span)
		err := r.ctx.PostRead(r.proc, verbs.ReadOp{
			LocalKey: mr.LKey(), LocalAddr: req.addr,
			RemoteKey: m.rkey, RemoteAddr: m.srcAddr,
			Size:       m.size,
			Span:       req.span,
			OnComplete: v,
		})
		if err != nil {
			panic("mpi: rendezvous read failed: " + err.Error())
		}
	default:
		panic("mpi: unknown message kind " + m.kind)
	}
}

// rndv is one rendezvous receive in flight: the RDMA read of a matched RTS
// and the FIN that follows it. Records come from World.rndvs and are their
// read's completion handler, so a rendezvous message builds no closure;
// Progress returns each after posting its FIN.
type rndv struct {
	r         *Rank
	req       *Request // the matched receive
	matchedAt sim.Time
	srcCtx    *verbs.Ctx // sender's context: the FIN's destination
	sendReq   *Request   // sender's request, completed by the FIN
	sendSpan  span.ID    // sender's root span, the FIN flight's parent
}

// Fire completes the receive when its data has landed (kernel handler
// context). The FIN goes out the next time the receiver is inside the
// library: the HCA completed, but the CPU must post the FIN.
func (v *rndv) Fire(at sim.Time) {
	r := v.r
	v.req.done = true
	r.w.mRecvLat.Observe(at - v.matchedAt)
	r.spans().EndAt(v.req.span, at)
	r.deferred = append(r.deferred, v)
	r.ctx.InboxCond.Broadcast()
}

// fin posts the FIN that completes the sender's request, then recycles the
// record. The FIN flight parents to the *sender's* span: it is the tail of
// the sender's completion path.
func (v *rndv) fin() {
	r := v.r
	fin := r.w.msgs.Get()
	fin.kind, fin.src, fin.sendReq = "fin", r.rank, v.sendReq
	r.ctx.PostSend(r.proc, v.srcCtx, r.w.packet(headerSize, fin, v.sendSpan))
	*v = rndv{}
	r.w.rndvs.Put(v)
}

// dispatch routes one incoming message: match a posted receive or queue it
// as unexpected. FINs complete the sender-side request directly.
func (r *Rank) dispatch(m *inMsg) {
	r.proc.AdvanceBusy(matchCost)
	if m.kind == "fin" {
		m.sendReq.done = true
		r.spans().End(m.sendReq.span)
		r.w.freeMsg(m)
		return
	}
	for i, req := range r.posted {
		if matches(req, m) {
			r.posted = slices.Delete(r.posted, i, i+1)
			r.handleMatch(req, m)
			r.w.freeMsg(m)
			return
		}
	}
	r.unexpected = append(r.unexpected, m)
}

// Progress drains arrived messages and advances collective schedules. It is
// invoked by Test/Wait and the blocking operations — never asynchronously,
// which is precisely the limitation the offload framework removes.
func (r *Rank) Progress() {
	for {
		acted := false
		// deferred and shmIn alternate with a spare buffer, as the verbs
		// inbox does: drain one while handlers append to the other.
		for len(r.deferred) > 0 {
			fins := r.deferred
			r.deferred = r.drained[:0]
			for _, v := range fins {
				v.fin()
			}
			clear(fins)
			r.drained = fins
			acted = true
		}
		if len(r.shmIn) > 0 {
			msgs := r.shmIn
			r.shmIn = r.shmDrained[:0]
			for _, m := range msgs {
				r.dispatch(m)
			}
			clear(msgs)
			r.shmDrained = msgs
			acted = true
		}
		for _, pkt := range r.ctx.PollInbox() {
			m := pkt.Payload.(*inMsg)
			r.w.Cl.Reg.PutPacket(pkt)
			r.dispatch(m)
			acted = true
		}
		if !acted {
			break
		}
	}
	r.progressColls()
}

// idle reports that no work is available without blocking.
func (r *Rank) idle() bool {
	return len(r.deferred) == 0 && len(r.shmIn) == 0 && r.ctx.InboxLen() == 0
}

// waitFor progresses until pred holds, blocking (in virtual time) while no
// traffic is available.
func (r *Rank) waitFor(pred func() bool) {
	for {
		r.Progress()
		if pred() {
			return
		}
		if r.idle() {
			r.ctx.InboxCond.Wait(r.proc)
		}
	}
}

// Wait blocks until the request completes (MPI_Wait), then releases it: the
// handle is dead once Wait returns.
func (r *Rank) Wait(req *Request) {
	t0 := r.enter()
	r.waitFor(func() bool { return req.done })
	r.w.freeReq(req)
	r.leave(t0)
}

// WaitAll blocks until every request completes (MPI_Waitall), then releases
// them all: the handles are dead once WaitAll returns.
func (r *Rank) WaitAll(reqs ...*Request) {
	t0 := r.enter()
	r.waitFor(func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
	for _, q := range reqs {
		r.w.freeReq(q)
	}
	r.leave(t0)
}

// Test progresses once and reports whether the request has completed
// (MPI_Test). It releases nothing: a request that tested done may still be
// waited on, and that Wait releases it.
func (r *Rank) Test(req *Request) bool {
	t0 := r.enter()
	r.Progress()
	r.leave(t0)
	return req.done
}

// Send is the blocking send (MPI_Send); its request is released by Wait.
func (r *Rank) Send(addr mem.Addr, size, dst, tag int) {
	r.Wait(r.Isend(addr, size, dst, tag))
}

// Recv is the blocking receive (MPI_Recv).
func (r *Rank) Recv(addr mem.Addr, size, src, tag int) {
	r.Wait(r.Irecv(addr, size, src, tag))
}
