package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/metrics"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// matchKey pairs RTS and RTR traffic: requests match on
// (source rank, destination rank, tag), FIFO within a key.
type matchKey struct{ src, dst, tag int }

// Proxy is a worker process on a BlueField DPU serving the host processes
// mapped to it. Its progress engine (engine.go) runs on the DPU whatever the
// hosts do — the reason offloaded patterns advance without host CPU
// intervention.
type Proxy struct {
	fw     *Framework
	global int
	entity string // "proxy<N>": span entity and metric name
	node   int
	local  int
	site   *cluster.Site
	ctx    *verbs.Ctx
	dsaCtx *verbs.Ctx // posts through the node's DSA engine port; nil without one
	eng    *engine    // the engine's current life; nil while crashed
	gvmiID gvmi.ID

	// Crash state (fault injection). gen counts crash/restart transitions:
	// work posted to the proxy under an older generation has been lost, which
	// is how hosts detect state loss across a restart.
	crashed   bool
	crashedAt sim.Time
	gen       int

	crossCache *regcache.Cache[*verbs.MR] // first level: source host rank

	sendQ    map[matchKey][]*rtsMsg
	recvQ    map[matchKey][]*rtrMsg
	combined []pairMsg    // matched send/recv pairs awaiting transfer
	paired   []pairMsg    // the buffer combined swaps with
	deferred []sim.Action // actions queued by RDMA completions
	drained  []sim.Action // the buffer deferred swaps with, as the verbs inbox does

	// groups is the DPU group cache, "indexed by the host's request ID and
	// rank" (Section VII-D): groups[node-local host rank][group id].
	groups    [][]*proxyGroup
	groupList []*proxyGroup // install order, for deterministic iteration

	stagePool map[int][]*datapath.Stage // free staging leases, by size class

	// Stats
	CtrlMsgs   int64
	RDMAWrites int64
	RDMAReads  int64
	StagedOps  int64
	GroupHits  int64
	GroupMiss  int64

	// sched is the per-tenant queueing/fairness state; nil on single-job
	// frameworks, where the control loop is untouched (see tenancy.go).
	sched *tenantSched

	// Metric handles; nil (inert) when metrics are off.
	mGroupHits *metrics.Counter
	mGroupMiss *metrics.Counter
	mQDepth    *metrics.Gauge
	mQDepthMax *metrics.Gauge
}

type pairMsg struct {
	rts *rtsMsg
	rtr *rtrMsg
}

// xfer is one matched pair in flight on its proxy. The record is its
// transfer's landed handler, and its twin xferDone the step that follows in
// the next engine round, so a transfer builds no closure (the group entries'
// handlers work the same way).
type xfer struct {
	px *Proxy
	pr pairMsg
	ts span.ID // the proxy-side transfer span
}

func (x *xfer) Fire(at sim.Time) {
	x.px.spans().EndAt(x.ts, at)
	x.px.later((*xferDone)(x))
}

// xferDone FINs the sender of a landed pair, and its twin xferFin the
// receiver, once the first FIN is posted. Each FIN flight parents to the
// respective host's root span — the completion notification is the tail of
// that operation's critical path.
type xferDone xfer

func (d *xferDone) Fire(sim.Time) {
	x := (*xfer)(d)
	x.px.sendFIN(x.pr.rts.Src, x.pr.rts.SrcReqID, x.pr.rts.Span)
	x.px.eng.cut((*xferFin)(x))
}

// xferFin FINs the receiver, then returns the record and the pair's
// payloads to their free lists.
type xferFin xfer

func (f *xferFin) Fire(sim.Time) {
	x := (*xfer)(f)
	px, pr := x.px, x.pr
	x.pr, x.ts = pairMsg{}, 0
	px.fw.xferFree.Put(x)
	px.sendFIN(pr.rtr.Dst, pr.rtr.DstReqID, pr.rtr.Span)
	recycle(&px.fw.rtsFree, pr.rts)
	recycle(&px.fw.rtrFree, pr.rtr)
}

func newProxy(fw *Framework, global, node, local int, site *cluster.Site) *Proxy {
	px := &Proxy{
		fw:         fw,
		global:     global,
		entity:     fmt.Sprintf("proxy%d", global),
		node:       node,
		local:      local,
		site:       site,
		ctx:        site.Ctx,
		crossCache: regcache.New[*verbs.MR](fw.cl.Cfg.NP(), 0, nil),
		sendQ:      make(map[matchKey][]*rtsMsg),
		recvQ:      make(map[matchKey][]*rtrMsg),
		groups:     make([][]*proxyGroup, fw.cl.Cfg.PPN),
		stagePool:  make(map[int][]*datapath.Stage),
	}
	if site.Node.DSAEP != nil {
		px.dsaCtx = site.Ctx.Registry().NewCtx(site.Ctx.Name()+".dsa", site.Space, site.Node.DSAEP)
	}
	px.instrument()
	return px
}

// instrument binds the proxy's metric handles; nil-safe and idempotent (the
// series are get-or-create, so a crash that recreates the cross-registration
// cache re-attaches it to the same counters).
func (px *Proxy) instrument() {
	m := px.fw.cl.Met
	px.crossCache.Instrument(m, fmt.Sprintf("cross.proxy%d", px.global))
	if !m.Enabled() {
		return
	}
	px.mGroupHits = m.Counter("core", px.entity, "group_hits")
	px.mGroupMiss = m.Counter("core", px.entity, "group_misses")
	px.mQDepth = m.Gauge("core", px.entity, "queue_depth")
	px.mQDepthMax = m.Gauge("core", px.entity, "queue_depth_max")
}

// sampleQueueDepth records the proxy's backlog (control inbox, deferred
// completions, matched-but-untransferred pairs) at group boundaries.
func (px *Proxy) sampleQueueDepth() {
	if px.mQDepth == nil {
		return
	}
	d := float64(px.ctx.InboxLen() + len(px.deferred) + len(px.combined))
	px.mQDepth.Set(d)
	px.mQDepthMax.SetMax(d)
}

// spans returns the cluster's span collector (nil when tracing is off).
func (px *Proxy) spans() *span.Collector { return px.fw.cl.Spans }

func (px *Proxy) idle() bool {
	return px.ctx.InboxLen() == 0 && len(px.deferred) == 0 && len(px.combined) == 0
}

// crash kills the proxy process at the scheduled virtual time (handler
// context), wherever its engine stands, even mid-round: all in-memory state —
// match queues, group cache, staging pool — is lost. Delivery counters in
// host memory survive. RDMA operations already on the wire still land (the
// HCA completes them), but the dead software never sends their
// notifications. A heartbeat-timeout later every host is woken so the loss
// can be detected.
func (px *Proxy) crash() {
	if px.crashed {
		return
	}
	fw := px.fw
	now := fw.cl.K.Now()
	px.eng = nil
	px.crashed = true
	px.crashedAt = now
	px.gen++
	fw.crashed = true
	px.ctx.PollInbox() // queued packets die with the process
	px.sendQ = make(map[matchKey][]*rtsMsg)
	px.recvQ = make(map[matchKey][]*rtrMsg)
	px.combined, px.deferred = nil, nil
	px.groups = make([][]*proxyGroup, fw.cl.Cfg.PPN)
	px.groupList = nil
	px.stagePool = make(map[int][]*datapath.Stage)
	px.crossCache = regcache.New[*verbs.MR](fw.cl.Cfg.NP(), 0, nil)
	px.instrument()
	px.initTenancy(fw.tenancy) // queued packets died with the process
	fw.cl.Met.Counter("core", px.entity, "crashes").Inc()
	if inj := fw.cl.Inj; inj != nil {
		inj.Stats.Crashes++
		if inj.Tracing() {
			inj.Note(now, span.ClassProxy, px.entity, "crash", "process killed")
		}
	}
	fw.cl.K.At(fw.hbTimeout(), func() {
		// The liveness counter in host memory has now been stale for a full
		// timeout: wake every host so Wait/GroupWait loops re-evaluate.
		for _, h := range fw.hosts {
			h.ctx.InboxCond.Broadcast()
		}
	})
}

// restart brings the proxy back as a new process with empty state (handler
// context); what arrived while it was down was never received. The
// generation bump tells hosts that anything posted before is gone.
func (px *Proxy) restart() {
	if !px.crashed {
		return
	}
	fw := px.fw
	now := fw.cl.K.Now()
	px.crashed = false
	px.gen++
	px.ctx.PollInbox()
	px.start()
	fw.cl.Met.Counter("core", px.entity, "restarts").Inc()
	if inj := fw.cl.Inj; inj != nil {
		inj.Stats.Restarts++
		if inj.Tracing() {
			inj.Note(now, span.ClassProxy, px.entity, "restart", "process restarted with empty state")
		}
	}
	for _, h := range fw.hosts {
		h.ctx.InboxCond.Broadcast()
	}
}

// dispatch acts on one control message whose parsing (proxyHandleCost) is
// paid for (Figure 8's DPU handler).
func (px *Proxy) dispatch(pkt *verbs.Packet) {
	px.CtrlMsgs++
	switch m := pkt.Payload.(type) {
	case *rtsMsg:
		px.fw.cl.Reg.PutPacket(pkt)
		k := matchKey{m.Src, m.Dst, m.Tag}
		if rtr, ok := popHead(px.recvQ, k); ok {
			px.combined = append(px.combined, pairMsg{rts: m, rtr: rtr})
		} else {
			px.sendQ[k] = append(px.sendQ[k], m)
		}
	case *rtrMsg:
		px.fw.cl.Reg.PutPacket(pkt)
		k := matchKey{m.Src, m.Dst, m.Tag}
		if rts, ok := popHead(px.sendQ, k); ok {
			px.combined = append(px.combined, pairMsg{rts: rts, rtr: m})
		} else {
			px.recvQ[k] = append(px.recvQ[k], m)
		}
	case *groupPacket:
		px.installGroup(m)
	case *greplayMsg:
		px.replayGroup(m)
		px.fw.cl.Reg.PutPacket(pkt)
		recycle(&px.fw.greplayFree, m)
	case *dlvMsg:
		px.fw.hosts[m.DstHost].countDelivery(pkt)
	case *oneSidedMsg:
		px.handleOneSided(m)
	default:
		panic(fmt.Sprintf("core: proxy %d: unexpected packet %T", px.global, pkt.Payload))
	}
}

// popHead removes and returns the oldest queued message of key k, keeping
// the queue's storage for the next arrival.
func popHead[T any](qs map[matchKey][]*T, k matchKey) (*T, bool) {
	q := qs[k]
	if len(q) == 0 {
		return nil, false
	}
	m := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	qs[k] = q[:n]
	return m, true
}

// transfer moves one matched basic-primitive pair on the datapath the
// sender chose (carried in the RTS), then FINs both hosts.
func (px *Proxy) transfer(pr pairMsg) {
	x := px.fw.xferFree.Get()
	x.px, x.pr, x.ts = px, pr, px.transferSpan(pr, pr.rts.Path.String())
	px.execute(pr.rts.Path, datapath.Transfer{
		SrcHost: pr.rts.Src, DstRank: pr.rtr.Dst, Size: pr.rts.Size,
		MKey:    pr.rts.MKey,
		SrcAddr: pr.rts.SrcAddr, SrcRKey: pr.rts.SrcRKey,
		DstAddr: pr.rtr.DstAddr, DstRKey: pr.rtr.RKey,
		Span: x.ts,
	}, x, nil)
}

// transferSpan opens the proxy-side "transfer" span of a matched pair,
// parented to the sender's root (0 when tracing is off).
func (px *Proxy) transferSpan(pr pairMsg, mech string) span.ID {
	sp := px.spans()
	if !sp.Enabled() {
		return 0
	}
	ts := sp.Start(pr.rts.Span, span.ClassProxy, px.entity, "core", "transfer")
	sp.AttrInt(ts, "size", int64(pr.rts.Size))
	sp.AttrStr(ts, "mech", mech)
	if name := px.fw.tenantName(pr.rts.Src); name != "" {
		sp.AttrStr(ts, "tenant", name)
	}
	return ts
}

func (px *Proxy) sendFIN(hostRank int, reqID int64, root span.ID) {
	fw := px.fw
	fin := fw.finFree.Get()
	fin.ReqID = reqID
	px.send(fw.hosts[hostRank].ctx, fw.ctrlPacket("fin", ctrlSize, fin, root))
}

// later queues a for the next engine round (used from completion handlers,
// which run in kernel handler context). A crashed proxy's completions are
// discarded: the data is on the wire regardless, but the dead software
// never acts on the CQE.
func (px *Proxy) later(a sim.Action) {
	if px.crashed {
		return
	}
	px.deferred = append(px.deferred, a)
	px.ctx.InboxCond.Broadcast()
}
