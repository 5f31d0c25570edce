package core

import (
	"fmt"
	"slices"

	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/regcache"
	"repro/internal/span"
	"repro/internal/verbs"
)

// GroupRequest records a complete communication pattern — sends, receives
// and local ordering barriers — for offload as a single unit (the Group
// Primitives of Section VI-B). Typical use, mirroring Listing 5's ring
// broadcast:
//
//	g := h.GroupStart()
//	if rank == 0 {
//	    g.Send(buf, size, right, tag)
//	    g.LocalBarrier()
//	} else {
//	    g.Recv(buf, size, left, tag)
//	    g.LocalBarrier()
//	    g.Send(buf, size, right, tag)
//	}
//	g.End()
//	h.GroupCall(g)   // offload the whole graph to the DPU
//	compute()        // overlap: the DPU progresses the ring
//	h.GroupWait(g)
//
// A request may be re-called; with the group cache enabled (Section VII-D)
// replays send only the request ID to the proxy.
type GroupRequest struct {
	h     *Host
	id    int
	path  datapath.Kind // datapath every send entry executes on
	ops   []GroupOp
	ended bool

	callSeq     int // GroupCall invocations
	doneSeq     int // completed calls (proxy's completion updates)
	sentToProxy bool

	// The gathered wire entries let the host re-execute the pattern itself,
	// and sentGen records the proxy generation the request was installed
	// under, so a restart (= lost group cache) is detectable and the
	// restarted proxy refuses the install if it arrives late.
	wire    []wireOp
	sentGen int

	// regs is an install's registration scratch (see installRegs): the
	// entries of its cache batches, then a slot reference per entry. Sized
	// at the first install, it serves every later one.
	regs []int32

	// roots holds each call's root span, by call number − 1, so fallback
	// re-execution after a proxy failure stays attributed to the original
	// operation. Recorded only while tracing.
	roots []span.ID
}

// GroupOp is one recorded entry.
type GroupOp struct {
	Addr mem.Addr
	Size int
	Peer int32 // destination (send) or source (recv)
	Tag  int32
	Type OpType
}

// GroupStart begins recording a new pattern (Group_Offload_start) on the
// framework's default datapath.
func (h *Host) GroupStart() *GroupRequest {
	return h.GroupStartVia(h.fw.DefaultPath())
}

// GroupStartVia begins recording a new pattern whose send entries execute on
// the given proxy datapath. The request's path is fixed at recording time:
// it is baked into the wire entries shipped to the DPU, so replays reuse it.
func (h *Host) GroupStartVia(kind datapath.Kind) *GroupRequest {
	if !kind.Valid() || kind == datapath.KindHostDirect {
		panic(fmt.Sprintf("core: GroupStartVia on non-proxy path %v", kind))
	}
	// As in SendOffloadVia: the recording rank's device decides what the
	// baked-in path degrades to (identity on full-capability profiles).
	kind = datapath.Resolve(kind, h.fw.CapsOfRank(h.rank))
	g := &GroupRequest{h: h, id: len(h.groups), path: kind}
	h.groups = append(h.groups, g)
	return g
}

// Reserve makes room for n more recorded entries, so a caller that knows a
// pattern's size records it without growing the entry list.
func (g *GroupRequest) Reserve(n int) { g.ops = slices.Grow(g.ops, n) }

// Send records an offloaded send (Send_Goffload).
func (g *GroupRequest) Send(addr mem.Addr, size, dst, tag int) {
	g.record(GroupOp{Type: OpSend, Addr: addr, Size: size, Peer: int32(g.h.peer(dst)), Tag: int32(tag)})
}

// Recv records an offloaded receive (Recv_Goffload).
func (g *GroupRequest) Recv(addr mem.Addr, size, src, tag int) {
	g.record(GroupOp{Type: OpRecv, Addr: addr, Size: size, Peer: int32(g.h.peer(src)), Tag: int32(tag)})
}

// LocalBarrier records an ordering point (Local_barrier_Goffload): entries
// after it start only when every earlier entry — including receives
// performed by remote proxies — has completed. This is the primitive MPI
// cannot express without blocking the CPU.
func (g *GroupRequest) LocalBarrier() {
	g.record(GroupOp{Type: OpBarrier})
}

func (g *GroupRequest) record(op GroupOp) {
	if g.ended {
		panic("core: group request already ended")
	}
	g.ops = append(g.ops, op)
}

// End finishes recording (Group_Offload_end) and sizes the request's
// delivery counters: one per receive entry and call, from each source.
func (g *GroupRequest) End() {
	if g.ended {
		return
	}
	g.ended = true
	b := g.h.barrier(g.id)
	top := -1
	for i := range g.ops {
		if op := &g.ops[i]; op.Type == OpRecv {
			top = max(top, int(op.Peer))
		}
	}
	b.cover(top) // at once, up to the highest source
	for i := range g.ops {
		if op := &g.ops[i]; op.Type == OpRecv {
			b.src[op.Peer].per++
		}
	}
}

// Ops returns the recorded entries (for inspection).
func (g *GroupRequest) Ops() []GroupOp { return g.ops }

// GroupCall offloads the recorded pattern to the host's proxy
// (Group_Offload_call, Figure 9). On the first call (or with the group
// cache disabled) it registers all buffers, gathers matching receive-entry
// metadata from the destination hosts, and ships the entire Group_op queue
// as one contiguous packet; replays send only the request ID.
func (h *Host) GroupCall(g *GroupRequest) { h.GroupCallCtx(g, 0) }

// GroupCallCtx is GroupCall carrying span context: parent (usually a
// collective's root span) becomes the causal parent of the host-side call
// work and of the proxy's execution of this call. Timing is identical to
// GroupCall.
func (h *Host) GroupCallCtx(g *GroupRequest, parent span.ID) {
	if !g.ended {
		panic("core: GroupCall before Group_Offload_end")
	}
	t0 := h.proc.Now()
	defer func() { h.OffloadTime += h.proc.Now() - t0 }()
	if h.fw.crashed && !h.failedOver {
		// Fail over before posting if earlier work is lost: a restarted
		// proxy would accept this call, and the host fallback would run it
		// too.
		h.checkRecovery()
	}
	g.callSeq++
	px := h.fw.proxyFor(h.rank)
	if sp := h.spans(); sp.Enabled() {
		// Host-side call span (registration + gather + packet build) under
		// the root; the proxy's execution span parents to the root directly
		// so the critical path descends into DPU/HCA/wire work.
		gc := sp.Start(parent, span.ClassRank, h.entity, "core", "group_call")
		sp.AttrInt(gc, "call", int64(g.callSeq))
		sp.AttrStr(gc, "path", g.path.String())
		g.roots = append(g.roots, parent)
		h.curSpan = gc
		defer func() {
			h.curSpan = 0
			sp.End(gc)
		}()
	}

	if h.failedOver {
		// The proxy is dead: the host executes the pattern itself. With no
		// group cache its peers gather on every call, so it gathers too.
		if g.wire == nil || !h.fw.cfg.GroupCache {
			g.wire = h.buildWire(g, px)
		}
		h.startFallbackCall(g, g.callSeq)
		return
	}

	if h.fw.cfg.GroupCache && g.sentToProxy {
		// Host-side cache hit: "the host sends the request ID to the DPU".
		m := h.fw.greplayFree.Get()
		*m = greplayMsg{HostRank: h.rank, GroupID: g.id, CallSeq: g.callSeq, Span: parent}
		h.ctx.PostSend(h.proc, px.ctx, h.fw.ctrlPacket("greplay", ctrlSize, m, parent))
		return
	}

	g.wire = h.buildWire(g, px)
	g.sentGen = px.gen

	// One contiguous Group_Offload_packet to the proxy.
	h.ctx.PostSend(h.proc, px.ctx, &verbs.Packet{
		Kind: "group",
		Size: ctrlSize + len(g.wire)*groupOpWireSize,
		Payload: &groupPacket{
			HostRank: h.rank, GroupID: g.id, CallSeq: g.callSeq, Gen: g.sentGen, Path: g.path, Entries: g.wire, Span: parent,
		},
		Span: parent,
	})
	g.sentToProxy = true
}

// buildWire performs the gather phase of Group_Offload_call: register every
// buffer, push receive-entry metadata to the source hosts, and match each
// send entry with the metadata gathered from its destination.
func (h *Host) buildWire(g *GroupRequest, px *Proxy) []wireOp {
	srcReg := g.path.SrcReg()
	sends, recvs := 0, 0
	for i := range g.ops {
		switch g.ops[i].Type {
		case OpSend:
			sends++
		case OpRecv:
			recvs++
		}
	}
	h.reserveGmeta(sends)

	// 1. Register buffers in call order — send buffers as the request's
	//    datapath demands (GVMI cache for cross-GVMI, IB cache for staged),
	//    receive buffers through the IB cache — straight into the wire
	//    entries, and push each receive entry's metadata to its source host.
	regs := h.installRegs(g, px, srcReg, sends, recvs)
	// A re-install builds into the last install's entries once every
	// earlier call is done, as nothing reads them then. Until then the
	// running call reads the entries its proxy installed, which are these.
	entries := g.wire
	if entries == nil || g.doneSeq != g.callSeq-1 {
		entries = make([]wireOp, len(g.ops))
	}
	for i := range g.ops {
		op, w := &g.ops[i], &entries[i]
		*w = wireOp{Type: op.Type, Size: op.Size, Peer: op.Peer}
		switch op.Type {
		case OpSend:
			w.SrcAddr = op.Addr
			switch srcReg {
			case datapath.RegGVMI:
				info := regs.mkey(h, px, i, op)
				w.SrcKey, w.Gvmi = info.MKey, info.Gvmi
			case datapath.RegIB:
				w.SrcKey = regs.mr(h, i, op).RKey()
			default:
				panic(fmt.Sprintf("core: group send on non-proxy path %v", g.path))
			}
		case OpRecv:
			mr := regs.mr(h, i, op)
			m := h.fw.gmetaFree.Get()
			*m = gmetaMsg{
				DstRank: int32(h.rank), Tag: op.Tag, Size: op.Size,
				DstAddr: op.Addr, RKey: mr.RKey(), DstGroup: int32(g.id),
			}
			h.ctx.PostSend(h.proc, h.fw.hosts[op.Peer].ctx, h.fw.ctrlPacket("gmeta", ctrlSize, m, 0))
		}
	}
	regs.commit()

	// 2. Match each send entry with the corresponding receive entry
	//    gathered from its destination (rank/tag matching).
	for i := range entries {
		op, w := &g.ops[i], &entries[i]
		if w.Type != OpSend {
			continue
		}
		meta := h.awaitGmeta(op.Peer, op.Tag)
		if meta.Size != w.Size {
			panic(fmt.Sprintf("core: group size mismatch: send %d vs recv %d", w.Size, meta.Size))
		}
		w.DstAddr, w.DstRKey, w.DstGroup = meta.DstAddr, meta.RKey, meta.DstGroup
		recycle(&h.fw.gmetaFree, meta)
	}
	return entries
}

// installRegs resolves one install's registrations in call order. With the
// caches on, each cache looks the call's keys up in one pass (a
// regcache.Batch per cache, over the request's entries); with them off,
// every buffer is registered afresh.
type installRegs struct {
	cached bool
	gvmi   regcache.Batch[hostMKey]
	ib     regcache.Batch[*verbs.MR]
}

// installRegs classifies g's keys for each cache, and announces the
// registrations their misses will make to the key tables, which then grow
// once for the install: a new host mkey, and on the cross-GVMI path the
// proxy's cross-registration of it, a verbs region each.
func (h *Host) installRegs(g *GroupRequest, px *Proxy, srcReg datapath.SrcReg, sends, recvs int) installRegs {
	if !h.fw.cfg.RegCaches {
		return installRegs{}
	}
	gvmiSends := 0
	if srcReg == datapath.RegGVMI {
		gvmiSends = sends
	}
	n := len(g.ops)
	if len(g.regs) < 2*n {
		g.regs = make([]int32, 2*n)
	}
	// ord lists the GVMI batch's entries, then the IB batch's, each in
	// entry order; ref is indexed by entry.
	ord, ref := g.regs[:sends+recvs], g.regs[n:2*n]
	gv, ib := 0, gvmiSends
	for i := range g.ops {
		switch op := &g.ops[i]; {
		case op.Type == OpSend && srcReg == datapath.RegGVMI:
			ord[gv], gv = int32(i), gv+1
		case op.Type != OpBarrier:
			ord[ib], ib = int32(i), ib+1
		}
	}
	r := installRegs{
		cached: true,
		gvmi:   h.gvmiCache.Batch(0, ord[:gvmiSends], ref),
		ib:     h.ibCache.Batch(0, ord[gvmiSends:], ref),
	}
	keyOf := func(i int32) (mem.Addr, int) { return g.ops[i].Addr, g.ops[i].Size }
	gvmiMisses := r.gvmi.Classify(keyOf)
	ibMisses := r.ib.Classify(keyOf)
	h.fw.cl.GVMI.Reserve(gvmiMisses)
	h.fw.cl.Reg.Reserve(gvmiMisses + ibMisses)
	return r
}

// mkey returns the MKeyInfo of send entry i's buffer.
func (r *installRegs) mkey(h *Host, px *Proxy, i int, op *GroupOp) gvmi.MKeyInfo {
	if !r.cached {
		return h.gvmiCreate(px, op.Addr, op.Size)
	}
	k, _ := r.gvmi.Next(int32(i), func() hostMKey { return mkeyOf(h.gvmiCreate(px, op.Addr, op.Size)) })
	return k.info(op.Addr, op.Size)
}

// mr returns the MR of entry i's buffer.
func (r *installRegs) mr(h *Host, i int, op *GroupOp) *verbs.MR {
	if !r.cached {
		return h.ibCreate(op.Addr, op.Size)
	}
	mr, _ := r.ib.Next(int32(i), func() *verbs.MR { return h.ibCreate(op.Addr, op.Size) })
	return mr
}

// commit ends the install's batches once every entry is registered.
func (r *installRegs) commit() {
	if r.cached {
		r.gvmi.Commit()
		r.ib.Commit()
	}
}

// awaitGmeta blocks until receive-entry metadata from dst with the given
// tag has been gathered (FIFO per (dst, tag) pair). Entries already looked at
// are not looked at again: only this call removes from the queue, and
// arrivals join at its end.
func (h *Host) awaitGmeta(dst, tag int32) *gmetaMsg {
	seen := 0 // live entries looked at
	for {
		q := h.gmetaQ
		for i := h.gmetaHead + seen; i < len(q); i++ {
			m := q[i]
			if m.DstRank != dst || m.Tag != tag {
				continue
			}
			// Take m and close the gap from the head, which moves nothing in
			// the usual case (every match of a 64-rank alltoall): peers
			// gather in the order this rank sends, so m is the head. The
			// vacated slot is cleared, as m goes back to its free list.
			copy(q[h.gmetaHead+1:i+1], q[h.gmetaHead:i])
			q[h.gmetaHead] = nil
			h.gmetaHead++
			return m
		}
		seen = len(q) - h.gmetaHead
		h.drainInbox()
		if len(h.gmetaQ)-h.gmetaHead == seen && h.ctx.InboxLen() == 0 {
			h.ctx.InboxCond.Wait(h.proc)
		}
	}
}

// reserveGmeta makes room in the gather queue for n more entries, so the
// metadata an install gathers for its n sends joins it without growing it.
func (h *Host) reserveGmeta(n int) {
	q := h.gmetaQ
	if len(q)+n <= cap(q) {
		return
	}
	live := q[h.gmetaHead:]
	if len(live)+n > cap(q) {
		q = make([]*gmetaMsg, len(live), len(live)+n)
		copy(q, live)
	} else {
		k := copy(q, live)
		clear(q[k:])
		q = q[:k]
	}
	h.gmetaQ, h.gmetaHead = q, 0
}

// queueGmeta appends gathered metadata to the queue. An append that would
// outgrow the storage first moves the live entries down over the slots
// already taken, so a warm gather allocates nothing.
func (h *Host) queueGmeta(m *gmetaMsg) {
	if q := h.gmetaQ; len(q) == cap(q) && h.gmetaHead > 0 {
		n := copy(q, q[h.gmetaHead:])
		clear(q[n:])
		h.gmetaQ, h.gmetaHead = q[:n], 0
	}
	h.gmetaQ = append(h.gmetaQ, m)
}

// GroupWait blocks until every issued GroupCall of g has completed
// (Group_Wait): the host waits for the completion counter its proxy updates
// after the whole pattern has executed on the DPU.
func (h *Host) GroupWait(g *GroupRequest) {
	h.waitFor(func() bool { return g.doneSeq >= g.callSeq })
}

// barrier returns the delivery counters of group request id, creating them
// on first touch.
func (h *Host) barrier(id int) *recvBarrier {
	for id >= len(h.barriers) {
		h.barriers = append(h.barriers, new(recvBarrier))
	}
	return h.barriers[id]
}

// countDelivery counts the delivery notification pkt carries, exactly once,
// and recycles packet and payload. It reports whether the notification was
// new; a duplicate — a fallback host re-sending a delivery its proxy had
// already sent — is counted in DlvDup.
func (h *Host) countDelivery(pkt *verbs.Packet) bool {
	m := pkt.Payload.(*dlvMsg)
	fresh := h.barrier(int(m.DstGroup)).count(int(m.SrcHost), int(m.Call), int(m.Entry))
	if !fresh {
		h.DlvDup++
		if inj := h.fw.cl.Inj; inj.Tracing() {
			inj.Note(h.fw.cl.K.Now(), span.ClassRank, h.entity, "dlv-dup",
				fmt.Sprintf("src=%d group=%d call=%d entry=%d", m.SrcHost, m.DstGroup, m.Call, m.Entry))
		}
	}
	h.fw.cl.Reg.PutPacket(pkt)
	recycle(&h.fw.dlvFree, m)
	return fresh
}
