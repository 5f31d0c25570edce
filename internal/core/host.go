package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Host is the per-rank handle of the offload library. Bind it to the rank's
// simulated process before calling any primitive; all methods must then be
// called from that process.
type Host struct {
	fw     *Framework
	rank   int
	entity string // "rank<N>": span entity and metric name
	site   *cluster.Site
	ctx    *verbs.Ctx
	proc   *sim.Proc

	gvmiCache *regcache.Cache[gvmi.MKeyInfo] // first level: proxy global rank
	ibCache   *regcache.Cache[*verbs.MR]

	nextSeq int64
	reqs    map[int64]*OffloadRequest
	groups  []*GroupRequest // by request id

	// gmetaQ[gmetaHead:] is the gathered receive-entry metadata not yet
	// matched by a send (see awaitGmeta); the slots before the head are nil.
	gmetaQ    []*gmetaMsg
	gmetaHead int

	// peers maps caller-local peer ranks to global framework ranks; nil is
	// the identity map. Multi-tenant runs drive each host from a placed MPI
	// world whose ranks are job-local, while the wire protocol (RTS/RTR,
	// group wires, proxy routing) speaks global ranks — SetPeers installs
	// the translation so callers never see global numbering.
	peers []int

	// Crash-tolerance state; allocated only when the fault plan schedules
	// proxy crashes (see failover.go). dlvCtx receives the RDMA delivery-
	// counter writes of Section VII-C, which move into host memory so they
	// survive a proxy failure: barriers holds them, by group request id.
	dlvCtx       *verbs.Ctx
	dlvSeen      map[dlvID]bool
	barriers     []*recvBarrier
	pendingSends map[int64]*sendRec
	pendingRecvs []*recvRec
	foQ          []*foSendMsg
	osPending    map[int64]*osRec
	fbRun        []*fbCall
	deferred     []func()
	failedOver   bool

	// Failure-detector metric handles; bound at construction (only under a
	// crash-configured fault plan, alongside the state above) so failover
	// never pays a registry lookup.
	mHeartbeatLosses *metrics.Counter
	mFailovers       *metrics.Counter

	// Reliability counters (aggregated by Framework.Stats).
	Failovers      int64
	FallbackCalls  int64
	FallbackWrites int64
	FoSends        int64
	OsReissues     int64
	DlvDup         int64

	// OffloadTime accumulates virtual time spent inside blocking calls of
	// this library (Wait/GroupWait/GroupCall).
	OffloadTime sim.Time

	// curSpan is the ambient causal parent while a primitive is being
	// issued, so registrations performed on its behalf (directly or through
	// the caches) attach to the right operation.
	curSpan span.ID
}

// spans returns the cluster's span collector (nil when tracing is off).
func (h *Host) spans() *span.Collector { return h.fw.cl.Spans }

// Bind attaches the handle to its process (call once, from the process).
func (h *Host) Bind(p *sim.Proc) { h.proc = p }

// Rank returns the host rank.
func (h *Host) Rank() int { return h.rank }

// SetPeers installs a caller-local → global peer-rank translation (see the
// peers field). Call before issuing operations; nil restores the identity.
func (h *Host) SetPeers(peers []int) { h.peers = peers }

// peer translates one caller-local peer rank to a global framework rank.
func (h *Host) peer(p int) int {
	if h.peers == nil {
		return p
	}
	return h.peers[p]
}

// Proc returns the bound process.
func (h *Host) Proc() *sim.Proc { return h.proc }

// OffloadRequest identifies one basic-primitive transfer (Send_Offload /
// Recv_Offload); pass it to Wait.
type OffloadRequest struct {
	h    *Host
	id   int64
	done bool
	span span.ID // root span of the operation (0 = untraced)
}

// Done reports completion without progressing.
func (q *OffloadRequest) Done() bool { return q.done }

func (h *Host) newReq() *OffloadRequest {
	h.nextSeq++
	id := int64(h.rank)<<32 | h.nextSeq
	q := &OffloadRequest{h: h, id: id}
	h.reqs[id] = q
	return q
}

// gvmiRegister returns the MKeyInfo for a source buffer, through the GVMI
// registration cache when enabled (keyed by the proxy's rank, per VII-B).
func (h *Host) gvmiRegister(px *Proxy, addr mem.Addr, size int) gvmi.MKeyInfo {
	create := func() gvmi.MKeyInfo {
		var s span.ID
		if sp := h.spans(); sp.Enabled() {
			s = sp.Start(h.curSpan, span.ClassHCA, h.entity, "verbs", "gvmi_reg")
			sp.AttrInt(s, "size", int64(size))
		}
		info, err := h.fw.cl.GVMI.RegisterHost(h.proc, h.ctx, addr, size, px.gvmiID)
		if err != nil {
			panic(fmt.Sprintf("core: host GVMI registration: %v", err))
		}
		h.spans().End(s)
		return info
	}
	if !h.fw.cfg.RegCaches {
		return create()
	}
	info, _ := h.gvmiCache.GetOrCreate(px.global, addr, size, create)
	return info
}

// ibRegister returns an MR for a local buffer through the IB registration
// cache when enabled.
func (h *Host) ibRegister(addr mem.Addr, size int) *verbs.MR {
	create := func() *verbs.MR { return h.ctx.RegisterMRCtx(h.proc, addr, size, h.curSpan) }
	if !h.fw.cfg.RegCaches {
		return create()
	}
	mr, _ := h.ibCache.GetOrCreate(0, addr, size, create)
	return mr
}

// DefaultPath returns the datapath operations take when no per-call path
// is given (the framework's construction-time mechanism).
func (h *Host) DefaultPath() datapath.Kind { return h.fw.DefaultPath() }

// FleetProfile returns the capability merge across the cluster's nodes
// (see device.Merge) — the profile group decisions must be made against.
func (h *Host) FleetProfile() device.Profile { return h.fw.cl.FleetProfile() }

// ProfileOfRank returns the device profile of the node hosting rank.
func (h *Host) ProfileOfRank(rank int) device.Profile { return h.fw.ProfileOfRank(rank) }

// SendOffload offloads a nonblocking send of [addr, addr+size) to rank dst
// (Send_Offload) on the framework's default datapath.
func (h *Host) SendOffload(addr mem.Addr, size, dst, tag int) *OffloadRequest {
	return h.SendOffloadVia(h.fw.DefaultPath(), addr, size, dst, tag)
}

// SendOffloadVia is SendOffload on an explicitly chosen datapath (policy
// engines decide per operation): the host registers the source buffer as
// the path requires and hands an RTS to its proxy; the proxy performs the
// transfer on that path. The kind must be proxy-executable — HostDirect
// transfers go through the MPI library, not this framework.
func (h *Host) SendOffloadVia(kind datapath.Kind, addr mem.Addr, size, dst, tag int) *OffloadRequest {
	// Degrade the requested path to one the sender's device can run. On
	// full-capability profiles Resolve is the identity, and the receiver's
	// RTR metadata is path-independent, so the fallback needs no handshake.
	kind = datapath.Resolve(kind, h.fw.CapsOfRank(h.rank))
	dst = h.peer(dst)
	px := h.fw.proxyFor(h.rank)
	req := h.newReq()
	if sp := h.spans(); sp.Enabled() {
		req.span = sp.Start(0, span.ClassRank, h.entity, "core", "send_offload")
		sp.AttrInt(req.span, "dst", int64(dst))
		sp.AttrInt(req.span, "size", int64(size))
		sp.AttrInt(req.span, "tag", int64(tag))
		sp.AttrStr(req.span, "path", kind.String())
		h.curSpan = req.span
		defer func() { h.curSpan = 0 }()
	}
	if h.fw.crashesConfigured() {
		rec := &sendRec{req: req, dst: dst, tag: tag, size: size, addr: addr, gen: px.gen}
		h.pendingSends[req.id] = rec
		if h.failedOver {
			// The proxy is gone: push the payload eagerly to the peer host.
			h.foSendNow(rec)
			return req
		}
	}
	rts := h.fw.rtsFree.get()
	*rts = rtsMsg{Src: h.rank, Dst: dst, Tag: tag, Size: size, SrcReqID: req.id, Path: kind, SrcAddr: addr, Span: req.span}
	switch datapath.ForKind(kind).SrcReg() {
	case datapath.RegGVMI:
		rts.MKey = h.gvmiRegister(px, addr, size)
	case datapath.RegIB:
		rts.SrcRKey = h.ibRegister(addr, size).RKey()
	default:
		panic(fmt.Sprintf("core: SendOffloadVia on non-proxy path %v", kind))
	}
	h.ctx.PostSend(h.proc, px.ctx, h.fw.ctrlPacket("rts", h.fw.cfg.CtrlSize+gvmi.WireSize, rts, req.span))
	return req
}

// RecvOffload offloads a nonblocking receive into [addr, addr+size) from
// rank src (Recv_Offload): the destination buffer is IB-registered and an
// RTR goes to the *sender's* proxy, which posts the RDMA write.
func (h *Host) RecvOffload(addr mem.Addr, size, src, tag int) *OffloadRequest {
	src = h.peer(src)
	px := h.fw.proxyFor(src)
	req := h.newReq()
	if sp := h.spans(); sp.Enabled() {
		req.span = sp.Start(0, span.ClassRank, h.entity, "core", "recv_offload")
		sp.AttrInt(req.span, "src", int64(src))
		sp.AttrInt(req.span, "size", int64(size))
		sp.AttrInt(req.span, "tag", int64(tag))
		h.curSpan = req.span
		defer func() { h.curSpan = 0 }()
	}
	if h.fw.crashesConfigured() {
		// A failed-over sender may already have pushed the payload eagerly.
		if m := h.takeFoSend(src, tag); m != nil {
			if m.Data != nil {
				h.site.Space.WriteAt(addr, m.Data, m.Size)
			}
			req.done = true
			delete(h.reqs, req.id)
			h.spans().End(req.span)
			h.foAck(m)
			return req
		}
		h.pendingRecvs = append(h.pendingRecvs, &recvRec{req: req, src: src, tag: tag, size: size, addr: addr})
	}
	mr := h.ibRegister(addr, size)
	rtr := h.fw.rtrFree.get()
	*rtr = rtrMsg{Src: src, Dst: h.rank, Tag: tag, Size: size, DstReqID: req.id, DstAddr: addr, RKey: mr.RKey(), Span: req.span}
	h.ctx.PostSend(h.proc, px.ctx, h.fw.ctrlPacket("rtr", h.fw.cfg.CtrlSize, rtr, req.span))
	return req
}

// drainInbox processes FIN / completion / gather traffic from proxies and
// peer hosts.
func (h *Host) drainInbox() bool {
	pkts := h.ctx.PollInbox()
	for _, pkt := range pkts {
		switch m := pkt.Payload.(type) {
		case *finMsg:
			if q, ok := h.reqs[m.ReqID]; ok {
				q.done = true
				delete(h.reqs, m.ReqID)
				h.dropRecords(m.ReqID)
				h.spans().End(q.span)
			}
			h.fw.cl.Reg.PutPacket(pkt)
			h.fw.finFree.put(m)
		case *gmetaMsg:
			h.fw.cl.Reg.PutPacket(pkt)
			h.queueGmeta(m)
		case *gdoneMsg:
			if g := h.groups[m.GroupID]; m.CallSeq > g.doneSeq {
				g.doneSeq = m.CallSeq
			}
			h.fw.cl.Reg.PutPacket(pkt)
			h.fw.gdoneFree.put(m)
		case *gfailMsg:
			h.handleGroupFail(m)
			h.fw.cl.Reg.PutPacket(pkt)
			h.fw.gfailFree.put(m)
		case *foSendMsg:
			h.handleFoSend(m)
		case *foAckMsg:
			if q, ok := h.reqs[m.ReqID]; ok {
				q.done = true
				delete(h.reqs, m.ReqID)
				h.dropRecords(m.ReqID)
				h.spans().End(q.span)
			}
		default:
			panic(fmt.Sprintf("core: host %d: unexpected packet %T", h.rank, pkt.Payload))
		}
	}
	return len(pkts) > 0
}

// progress runs one round of host-side progress: drain completions, run
// deferred actions queued by RDMA completion handlers, detect dead proxies,
// and advance any host-progressed fallback execution. Without a fault plan
// it reduces to drainInbox.
func (h *Host) progress() {
	h.drainInbox()
	if h.fw.crashesConfigured() {
		h.runDeferred()
		h.checkRecovery()
		h.progressFallback()
	}
}

// waitFor drains completions until pred holds.
func (h *Host) waitFor(pred func() bool) {
	t0 := h.proc.Now()
	for {
		h.progress()
		if pred() {
			break
		}
		if h.ctx.InboxLen() == 0 && len(h.deferred) == 0 {
			h.ctx.InboxCond.Wait(h.proc)
		}
	}
	h.OffloadTime += h.proc.Now() - t0
}

// Wait blocks until the basic-primitive request completes. The transfer
// itself progresses on the DPU regardless; Wait only observes the FIN.
func (h *Host) Wait(req *OffloadRequest) {
	h.waitFor(func() bool { return req.done })
}

// WaitAll blocks until all given requests complete.
func (h *Host) WaitAll(reqs ...*OffloadRequest) {
	h.waitFor(func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
}
