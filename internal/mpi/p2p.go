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
	addr   mem.Addr
	size   int
	peer   int // destination (send) or source-match (recv, AnySource ok)
	tag    int
	span   span.ID // root span of the operation (0 = untraced)
	isRecv bool
	done   bool
}

// Done reports completion without progressing (see Test).
func (q *Request) Done() bool { return q.done }

// inMsg is the receive-side view of an incoming message. Records are
// recycled by whoever consumes them (see World.freeMsg): the dispatch of a
// FIN, or the match of a receive (matchDone).
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
	dst.site.Ctx.InboxCond.Broadcast()
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
	r.postOne(req, false, addr, size, dst, tag)
	r.do(callPost, phPost)
	return req
}

// Irecv starts a nonblocking receive into [addr, addr+size) from src
// (or AnySource) with the given tag (or AnyTag). The handle lives until Wait
// or WaitAll returns (see Request).
func (r *Rank) Irecv(addr mem.Addr, size, src, tag int) *Request {
	req := r.w.reqs.Get()
	r.postOne(req, true, addr, size, src, tag)
	r.do(callPost, phPost)
	return req
}

// start posts a queued request: a record the caller owns and may reuse
// once it is done (Barrier keeps two per rank, Ialltoall reuses a slab per
// rank, Isend and Irecv take one from World.reqs).
func (r *Rank) start(req *Request) {
	if req.isRecv {
		r.startRecv(req)
	} else {
		r.startSend(req)
	}
}

// startSend starts a send; a costed action leaves the rest to the next step.
func (r *Rank) startSend(req *Request) {
	r.startP2PSpan(req, "isend", req.peer)
	cl := r.w.Cl
	msg := r.w.msgs.Get()
	msg.src, msg.tag, msg.size, msg.srcCtx, msg.span = r.rank, req.tag, req.size, r.site.Ctx, req.span
	r.cur, r.msg = req, msg
	dst := req.peer

	switch {
	case dst == r.rank:
		// Self-send: treat as shm with zero latency.
		r.w.mShm.Inc()
		msg.kind = "shm"
		msg.srcSpace, msg.srcAddr, msg.sendReq = r.site.Space, req.addr, req
		r.deliverLocal(r.w.ranks[dst], msg, 0)
	case r.w.SameNode(r.rank, dst) && req.size <= eagerThreshold:
		// Copy-in/copy-out through a shared-memory slot; the send
		// completes once the copy-in is done.
		r.w.mShm.Inc()
		r.clk.Charge(cl.CopyCost(req.size), (*copiedIn)(r))
	case r.w.SameNode(r.rank, dst):
		// Large intra-node: single copy performed by the receiver at
		// match time; the sender completes when the copy finishes.
		r.w.mShm.Inc()
		msg.kind = "shm"
		msg.srcSpace, msg.srcAddr, msg.sendReq = r.site.Space, req.addr, req
		r.deliverLocal(r.w.ranks[dst], msg, cl.Cfg.ShmLatency)
	case req.size <= eagerThreshold:
		// Eager: payload is copied into a pre-registered bounce buffer and
		// shipped with the header; the buffer is immediately reusable.
		r.w.mEager.Inc()
		r.clk.Charge(cl.CopyCost(req.size), (*copiedIn)(r))
	default:
		// Rendezvous (RGET): register the source buffer (through the IB
		// registration cache) and send an RTS carrying the rkey; the
		// receiver RDMA-reads the data and FINs back. The send completes
		// when the FIN is processed — which requires this process to
		// re-enter the library.
		r.w.mRdv.Inc()
		if mr := r.register(req.addr, req.size, req.span); mr != nil {
			r.sendRTS(mr)
		}
	}
}

// copiedIn goes on with an eager send once its copy-in is paid: into a
// shared-memory slot, and the send is done; or into a bounce buffer, which
// is posted, and eagerSent completes the send once the post is paid.
type copiedIn Rank

func (c *copiedIn) Fire(sim.Time) {
	r := (*Rank)(c)
	req, msg := r.cur, r.msg
	msg.kind = "eager"
	msg.copyIn(r.site.Space, req.addr, req.size)
	dst := r.w.ranks[req.peer]
	if !r.w.SameNode(r.rank, req.peer) {
		r.postSend(dst.site.Ctx, r.w.packet(req.size+headerSize, msg, req.span), (*eagerSent)(r))
		return
	}
	r.deliverLocal(dst, msg, r.w.Cl.Cfg.ShmLatency)
	r.sent()
}

type eagerSent Rank

func (s *eagerSent) Fire(sim.Time) {
	r := (*Rank)(s)
	r.issue()
	r.sent()
}

// sent completes the send being posted.
func (r *Rank) sent() {
	r.cur.done = true
	r.spans().End(r.cur.span)
}

// sendRTS posts the RTS of a rendezvous send whose source is registered.
func (r *Rank) sendRTS(mr *verbs.MR) {
	req, msg := r.cur, r.msg
	msg.kind = "rts"
	msg.srcAddr, msg.rkey, msg.sendReq = req.addr, mr.RKey(), req
	r.postSend(r.w.ranks[req.peer].site.Ctx, r.w.packet(headerSize, msg, req.span), (*issue)(r))
}

// postSend pays for posting pkt to dst; done completes the post.
func (r *Rank) postSend(dst *verbs.Ctx, pkt *verbs.Packet, done sim.Action) {
	r.post = r.site.Ctx.StartSend(dst, pkt)
	r.clk.Charge(r.post.Cost(), done)
}

// startRecv starts a receive: it matches the first unexpected arrival it
// can, or joins the posted queue.
func (r *Rank) startRecv(req *Request) {
	r.startP2PSpan(req, "irecv", req.peer)
	for i, m := range r.unexpected {
		if matches(req, m) {
			r.unexpected = slices.Delete(r.unexpected, i, i+1)
			r.match(req, m)
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

// register returns the MR of [addr, addr+size) from the registration cache.
// On a miss it starts the registration, recorded under parent, and returns
// nil: regStep finishes it once its cost is paid.
func (r *Rank) register(addr mem.Addr, size int, parent span.ID) *verbs.MR {
	if mr, ok := r.regCache.Get(0, addr, size); ok {
		return mr
	}
	r.reg = r.site.Ctx.StartReg(addr, size, parent)
	r.clk.Charge(r.reg.Attempt(), (*regStep)(r))
	return nil
}

// regStep ends a paid-for registration attempt of the current request's
// buffer: a failed one is tried again; a successful one is cached, and the
// rendezvous goes on — the RTS of a send, the RDMA read of a receive.
type regStep Rank

func (st *regStep) Fire(sim.Time) {
	r := (*Rank)(st)
	mr := r.reg.Finish()
	if mr == nil {
		r.clk.Charge(r.reg.Attempt(), st)
		return
	}
	req := r.cur
	r.regCache.Put(0, req.addr, req.size, mr)
	if req.isRecv {
		r.postRead(mr)
	} else {
		r.sendRTS(mr)
	}
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

// match completes the protocol for a matched (request, message) pair and
// then recycles the message (matchDone). The matched-receive latency
// histogram measures match-to-data-landed time: the copy for eager/shm, paid
// from the match on, and the RDMA read for rendezvous.
func (r *Rank) match(req *Request, m *inMsg) {
	r.cur, r.msg = req, m
	switch m.kind {
	case "eager", "shm":
		r.clk.Charge(r.w.Cl.CopyCost(m.size), (*landed)(r))
	case "rts":
		// Rendezvous: RDMA-read the payload from the sender's buffer. The
		// read outlives m (recycled by matchDone), so a rndv record keeps
		// what its completion and the FIN need.
		v := r.w.rndvs.Get()
		v.r, v.req, v.matchedAt = r, req, r.w.Cl.K.Now()
		v.srcCtx, v.sendReq, v.sendSpan = m.srcCtx, m.sendReq, m.span
		r.v = v
		if mr := r.register(req.addr, req.size, req.span); mr != nil {
			r.postRead(mr)
		}
	default:
		panic("mpi: unknown message kind " + m.kind)
	}
	r.clk.Cut((*matchDone)(r))
}

// matchDone recycles the matched message once its match is done.
type matchDone Rank

func (d *matchDone) Fire(sim.Time) { d.w.freeMsg(d.msg) }

// landed completes an eager receive once its copy-out is paid, or both
// sides of a single-copy intra-node transfer once the receiver's copy is.
type landed Rank

func (l *landed) Fire(sim.Time) {
	r := (*Rank)(l)
	req, m := r.cur, r.msg
	payload := m.data
	if m.kind == "shm" {
		payload = m.srcSpace.ReadAt(m.srcAddr, m.size)
	}
	r.site.Space.WriteAt(req.addr, payload, m.size)
	req.done = true
	r.w.mRecvLat.Observe(r.w.Cl.CopyCost(m.size))
	r.spans().End(req.span)
	if m.kind == "shm" {
		m.sendReq.done = true
		r.spans().End(m.sendReq.span)
		m.srcCtx.InboxCond.Broadcast() // wake the sender if it is waiting
	}
}

// postRead posts the RDMA read of a matched RTS into the registered
// receive buffer.
func (r *Rank) postRead(mr *verbs.MR) {
	req, m := r.cur, r.msg
	p, err := r.site.Ctx.StartRead(verbs.ReadOp{
		LocalKey: mr.LKey(), LocalAddr: req.addr,
		RemoteKey: m.rkey, RemoteAddr: m.srcAddr,
		Size:       m.size,
		Span:       req.span,
		OnComplete: r.v,
	})
	if err != nil {
		panic("mpi: rendezvous read failed: " + err.Error())
	}
	r.post = p
	r.clk.Charge(p.Cost(), (*issue)(r))
}

// rndv is one rendezvous receive in flight: the RDMA read of a matched RTS
// and the FIN that follows it. Records come from World.rndvs and are their
// read's completion handler, so a rendezvous message builds no closure;
// the FIN's completion returns each (finSent).
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
	r.site.Ctx.InboxCond.Broadcast()
}

// fin posts the FIN that completes the sender's request. The FIN flight
// parents to the *sender's* span: it is the tail of the sender's completion
// path.
func (r *Rank) fin(v *rndv) {
	fin := r.w.msgs.Get()
	fin.kind, fin.src, fin.sendReq = "fin", r.rank, v.sendReq
	r.v = v
	r.postSend(v.srcCtx, r.w.packet(headerSize, fin, v.sendSpan), (*finSent)(r))
}

// finSent completes a FIN's post and recycles its rendezvous record.
type finSent Rank

func (s *finSent) Fire(sim.Time) {
	r := (*Rank)(s)
	r.issue()
	v := r.v
	*v = rndv{}
	r.w.rndvs.Put(v)
}

// dispatch routes one incoming message once its header is processed
// (dispatchStep).
func (r *Rank) dispatch(m *inMsg) {
	r.msg = m
	r.clk.Charge(matchCost, nil)
	r.clk.Cut((*dispatchStep)(r))
}

// dispatchStep matches a processed message to a posted receive or queues
// it as unexpected. FINs complete the sender-side request directly.
type dispatchStep Rank

func (st *dispatchStep) Fire(sim.Time) {
	r := (*Rank)(st)
	m := r.msg
	if m.kind == "fin" {
		m.sendReq.done = true
		r.spans().End(m.sendReq.span)
		r.w.freeMsg(m)
		return
	}
	for i, req := range r.posted {
		if matches(req, m) {
			r.posted = slices.Delete(r.posted, i, i+1)
			r.match(req, m)
			return
		}
	}
	r.unexpected = append(r.unexpected, m)
}

// Wait blocks until the request completes (MPI_Wait), then releases it: the
// handle is dead once Wait returns.
func (r *Rank) Wait(req *Request) {
	t0 := r.enter()
	r.pair[0] = req
	r.wait(r.pair[:1], nil)
	r.w.freeReq(req)
	r.leave(t0)
}

// WaitAll blocks until every request completes (MPI_Waitall), then releases
// them all: the handles are dead once WaitAll returns.
func (r *Rank) WaitAll(reqs ...*Request) {
	t0 := r.enter()
	r.wait(reqs, nil)
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
	r.do(callTest, phDeferred)
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
