package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/gvmi"
	"repro/internal/mem"
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

	gvmiCache *regcache.Cache[gvmi.MKeyInfo] // one slot: the host's proxy, fw.proxyFor(rank)
	ibCache   *regcache.Cache[*verbs.MR]

	nextSeq int64
	reqs    map[int64]*reqRec // outstanding basic-primitive and one-sided requests
	groups  []*GroupRequest   // by request id

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

	// barriers holds the delivery counters of Section VII-C, by group
	// request id; dlvEP is where they are written (see New).
	barriers []*recvBarrier
	dlvEP    *verbs.Ctx

	// Host-progressed fallback state (see failover.go).
	foQ        []*foSendMsg
	fbRun      []*fbCall
	deferred   []sim.Action
	failedOver bool

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

// OffloadRequest identifies one basic-primitive or one-sided transfer
// (Send_Offload / Recv_Offload, Put/Get); pass it to Wait or WaitAll. The
// handle is dead once Wait or WaitAll returns: its record goes back to the
// framework's free list. A handle that is never waited on is left to the
// garbage collector.
type OffloadRequest struct {
	id   int64
	done bool
	span span.ID // root span of the operation (0 = untraced)
}

// reqKind says what a request record is for.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
	reqPut
	reqGet
)

// reqRec is the host's record of one outstanding request: what completes it
// and what the host needs to finish it itself if the proxy executing it dies
// (see failover.go). Records are recycled when their request completes; the
// caller keeps only the OffloadRequest, which Wait recycles. A completed
// request is out of the table, so a late FIN finds nothing to complete.
type reqRec struct {
	req   *OffloadRequest
	kind  reqKind
	proxy *Proxy // executing proxy
	gen   int    // its generation when the request was posted
	peer  int    // send: destination rank; receive: source rank
	tag   int
	size  int
	addr  mem.Addr // the local buffer

	// One-sided requests: the local window's key and the remote window.
	lKey, rKey verbs.Key
	rAddr      mem.Addr

	moved bool // the host took over: pushed the send eagerly, or re-posted the transfer
}

// newReq opens a request executed by px and records it in the table.
func (h *Host) newReq(kind reqKind, px *Proxy) *reqRec {
	h.nextSeq++
	r := h.fw.reqFree.Get()
	r.req = h.fw.offReqFree.Get()
	r.req.id = int64(h.rank)<<32 | h.nextSeq
	r.kind, r.proxy, r.gen = kind, px, px.gen
	h.reqs[r.req.id] = r
	return r
}

// complete finishes request id and recycles its record. A request the host
// already finished — a late FIN after a re-post, say — is ignored.
func (h *Host) complete(id int64) {
	r, ok := h.reqs[id]
	if !ok {
		return
	}
	r.req.done = true
	delete(h.reqs, id)
	h.spans().End(r.req.span)
	recycle(&h.fw.reqFree, r)
}

// gvmiRegister returns the MKeyInfo for a source buffer, through the GVMI
// registration cache when enabled (keyed by the proxy, per VII-B: the host's
// one proxy, so the cache has one slot).
func (h *Host) gvmiRegister(px *Proxy, addr mem.Addr, size int) gvmi.MKeyInfo {
	create := func() gvmi.MKeyInfo { return h.gvmiCreate(px, addr, size) }
	if !h.fw.cfg.RegCaches {
		return create()
	}
	info, _ := h.gvmiCache.GetOrCreate(0, addr, size, create)
	return info
}

// gvmiCreate performs the host-side GVMI registration of a source buffer
// for px, bypassing the cache.
func (h *Host) gvmiCreate(px *Proxy, addr mem.Addr, size int) gvmi.MKeyInfo {
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

// ibRegister returns an MR for a local buffer through the IB registration
// cache when enabled.
func (h *Host) ibRegister(addr mem.Addr, size int) *verbs.MR {
	create := func() *verbs.MR { return h.ibCreate(addr, size) }
	if !h.fw.cfg.RegCaches {
		return create()
	}
	mr, _ := h.ibCache.GetOrCreate(0, addr, size, create)
	return mr
}

// ibCreate registers a local buffer with the NIC, bypassing the cache.
func (h *Host) ibCreate(addr mem.Addr, size int) *verbs.MR {
	return h.ctx.RegisterMRCtx(h.proc, addr, size, h.curSpan)
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
	rec := h.newReq(reqSend, px)
	rec.peer, rec.tag, rec.size, rec.addr = dst, tag, size, addr
	req := rec.req
	if sp := h.spans(); sp.Enabled() {
		req.span = sp.Start(0, span.ClassRank, h.entity, "core", "send_offload")
		sp.AttrInt(req.span, "dst", int64(dst))
		sp.AttrInt(req.span, "size", int64(size))
		sp.AttrInt(req.span, "tag", int64(tag))
		sp.AttrStr(req.span, "path", kind.String())
		h.curSpan = req.span
		defer func() { h.curSpan = 0 }()
	}
	if h.failedOver {
		// The proxy is gone: push the payload eagerly to the peer host.
		h.foSendNow(rec)
		return req
	}
	rts := h.fw.rtsFree.Get()
	*rts = rtsMsg{Src: h.rank, Dst: dst, Tag: tag, Size: size, SrcReqID: req.id, Path: kind, SrcAddr: addr, Span: req.span}
	switch kind.SrcReg() {
	case datapath.RegGVMI:
		rts.MKey = h.gvmiRegister(px, addr, size)
	case datapath.RegIB:
		rts.SrcRKey = h.ibRegister(addr, size).RKey()
	default:
		panic(fmt.Sprintf("core: SendOffloadVia on non-proxy path %v", kind))
	}
	h.ctx.PostSend(h.proc, px.ctx, h.fw.ctrlPacket("rts", ctrlSize+gvmi.WireSize, rts, req.span))
	return req
}

// RecvOffload offloads a nonblocking receive into [addr, addr+size) from
// rank src (Recv_Offload): the destination buffer is IB-registered and an
// RTR goes to the *sender's* proxy, which posts the RDMA write.
func (h *Host) RecvOffload(addr mem.Addr, size, src, tag int) *OffloadRequest {
	src = h.peer(src)
	px := h.fw.proxyFor(src)
	rec := h.newReq(reqRecv, px)
	rec.peer, rec.tag, rec.size, rec.addr = src, tag, size, addr
	req := rec.req
	if sp := h.spans(); sp.Enabled() {
		req.span = sp.Start(0, span.ClassRank, h.entity, "core", "recv_offload")
		sp.AttrInt(req.span, "src", int64(src))
		sp.AttrInt(req.span, "size", int64(size))
		sp.AttrInt(req.span, "tag", int64(tag))
		h.curSpan = req.span
		defer func() { h.curSpan = 0 }()
	}
	// A failed-over sender may already have pushed the payload eagerly.
	if m := h.takeFoSend(src, tag); m != nil {
		h.acceptFoSend(rec, m)
		return req
	}
	mr := h.ibRegister(addr, size)
	rtr := h.fw.rtrFree.Get()
	*rtr = rtrMsg{Src: src, Dst: h.rank, Tag: tag, Size: size, DstReqID: req.id, DstAddr: addr, RKey: mr.RKey(), Span: req.span}
	h.ctx.PostSend(h.proc, px.ctx, h.fw.ctrlPacket("rtr", ctrlSize, rtr, req.span))
	return req
}

// drainInbox processes FIN / completion / gather traffic from proxies and
// peer hosts.
func (h *Host) drainInbox() bool {
	pkts := h.ctx.PollInbox()
	for _, pkt := range pkts {
		switch m := pkt.Payload.(type) {
		case *finMsg:
			h.complete(m.ReqID)
			h.fw.cl.Reg.PutPacket(pkt)
			recycle(&h.fw.finFree, m)
		case *gmetaMsg:
			h.fw.cl.Reg.PutPacket(pkt)
			h.queueGmeta(m)
		case *gdoneMsg:
			if g := h.groups[m.GroupID]; m.CallSeq > g.doneSeq {
				g.doneSeq = m.CallSeq
			}
			h.fw.cl.Reg.PutPacket(pkt)
			recycle(&h.fw.gdoneFree, m)
		case *gfailMsg:
			// The proxy restarted and lost its group cache: the replayed call
			// cannot run on the DPU, so the host takes over. (A host that
			// has failed over already queued every call it issued.)
			if !h.failedOver {
				h.failover(h.proc.Now())
			}
			h.fw.cl.Reg.PutPacket(pkt)
			recycle(&h.fw.gfailFree, m)
		case *foSendMsg:
			h.handleFoSend(m)
		case *foAckMsg:
			h.complete(m.ReqID)
		default:
			panic(fmt.Sprintf("core: host %d: unexpected packet %T", h.rank, pkt.Payload))
		}
	}
	return len(pkts) > 0
}

// progress runs one round of host-side progress: drain completions, run
// deferred actions queued by RDMA completion handlers, detect dead proxies
// once one has crashed, and advance any host-progressed fallback execution.
// Until a proxy crashes it reduces to drainInbox.
func (h *Host) progress() {
	h.drainInbox()
	h.runDeferred()
	if h.fw.crashed {
		h.checkRecovery()
	}
	h.progressFallback()
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

// Wait blocks until the request completes, then releases it: the handle is
// dead once Wait returns. The transfer itself progresses on the DPU
// regardless; Wait only observes the FIN.
func (h *Host) Wait(req *OffloadRequest) {
	h.waitFor(func() bool { return req.done })
	recycle(&h.fw.offReqFree, req)
}

// WaitAll blocks until all given requests complete, then releases them all
// (see Wait).
func (h *Host) WaitAll(reqs ...*OffloadRequest) {
	h.waitFor(func() bool {
		for _, q := range reqs {
			if !q.done {
				return false
			}
		}
		return true
	})
	for _, q := range reqs {
		recycle(&h.fw.offReqFree, q)
	}
}
