package core

import (
	"fmt"

	"repro/internal/datapath"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// proxyGroup is the DPU-side state of one offloaded group request — the
// entry of the paper's DPU group cache ("indexed by the host's request ID
// and rank", Section VII-D).
type proxyGroup struct {
	host    int
	id      int
	entries []wireOp

	callSeq     int // latest call requested by the host
	finishedSeq int // calls fully executed
	running     bool
	idx         int // next entry to process in the running call
	pending     int // RDMA writes posted but not yet completed
	numBarriers int

	// expected counts, per source host, of deliveries required so far
	// (cumulative across calls); compared against the proxy's delivery
	// counters — the barrier-counter mechanism of Section VII-C.
	expected map[int]int

	// cachedMRs memoizes cross-registrations per entry so replays skip even
	// the cache lookup ("the group entry queue also contains the GVMI
	// registration cache entry").
	cachedMRs []*verbs.MR

	// roots maps each pending call number to the host-side root span it
	// arrived under (dropped as calls complete); execSpan is the proxy's
	// execution span for the currently running call.
	roots    map[int]span.ID
	execSpan span.ID
}

// installGroup handles a full Group_Offload_packet.
func (px *Proxy) installGroup(m *groupPacket) {
	px.GroupMiss++
	px.mGroupMiss.Inc()
	px.sampleQueueDepth()
	k := groupKey{m.HostRank, m.GroupID}
	g := px.groups[k]
	if g == nil {
		g = &proxyGroup{host: m.HostRank, id: m.GroupID, expected: make(map[int]int)}
		px.groups[k] = g
		px.groupList = append(px.groupList, g)
	}
	g.entries = m.Entries
	g.cachedMRs = make([]*verbs.MR, len(m.Entries))
	if m.CallSeq > g.callSeq {
		g.callSeq = m.CallSeq
	}
	g.noteRoot(m.CallSeq, m.Span)
}

// noteRoot records the host-side root span a call arrived under.
func (g *proxyGroup) noteRoot(call int, root span.ID) {
	if root == 0 {
		return
	}
	if g.roots == nil {
		g.roots = make(map[int]span.ID)
	}
	g.roots[call] = root
}

// replayGroup handles a cache-hit replay: only the request ID travelled.
func (px *Proxy) replayGroup(m *greplayMsg) {
	g := px.groups[groupKey{m.HostRank, m.GroupID}]
	if g == nil {
		if px.fw.crashesConfigured() {
			// The group cache died with a crash; tell the host so it fails
			// over to host-progressed execution.
			h := px.fw.hosts[m.HostRank]
			px.ctx.PostSend(px.proc, h.ctx, &verbs.Packet{
				Kind: "gfail", Size: px.fw.cfg.CtrlSize,
				Payload: &gfailMsg{GroupID: m.GroupID, CallSeq: m.CallSeq},
			})
			return
		}
		panic(fmt.Sprintf("core: proxy %d: replay of unknown group %d/%d", px.global, m.HostRank, m.GroupID))
	}
	px.GroupHits++
	px.mGroupHits.Inc()
	px.sampleQueueDepth()
	if m.CallSeq > g.callSeq {
		g.callSeq = m.CallSeq
	}
	g.noteRoot(m.CallSeq, m.Span)
}

// active reports whether the group has a call to start or to finish. Only
// the progress engine itself changes that — serving a replay raises callSeq,
// advanceGroup moves running and finishedSeq — so a round can test it group
// by group while ranging over px.groupList (install order, deterministic)
// without snapshotting the active ones first.
func (g *proxyGroup) active() bool { return g.running || g.finishedSeq < g.callSeq }

// recvsSatisfied checks the delivery counters against the group's expected
// receive counts (isRecvBarrierDone of Algorithm 1). When crashes are
// configured the counters live in the destination host's memory (RDMA
// counter writes, Section VII-C) so they survive a proxy failure; the proxy
// reads them across the PCIe switch.
func (px *Proxy) recvsSatisfied(g *proxyGroup) bool {
	if px.fw.crashesConfigured() {
		h := px.fw.hosts[g.host]
		for src, n := range g.expected {
			if h.dlvCnt[gsKey{g.id, src}] < n {
				return false
			}
		}
		return true
	}
	for src, n := range g.expected {
		if px.deliveries[deliveryKey{g.host, g.id, src}] < n {
			return false
		}
	}
	return true
}

// advanceGroup is the proxy-side engine of Algorithm 1: it walks the entry
// queue, posting sends, accounting receives, and blocking at barriers until
// preceding sends have completed locally and expected deliveries have
// arrived. When it cannot proceed it returns to the progress engine rather
// than spinning — the deadlock-avoidance requirement called out in the
// paper (one proxy may serve both ends of a dependency).
func (px *Proxy) advanceGroup(g *proxyGroup) bool {
	progressed := false
	if !g.running {
		if g.finishedSeq >= g.callSeq {
			return false
		}
		g.running = true
		g.idx = 0
		if sp := px.spans(); sp.Enabled() {
			// The execution span parents directly to the host-side root so
			// the critical path descends from the collective into DPU work.
			g.execSpan = sp.Start(g.roots[g.finishedSeq+1], span.ClassProxy,
				px.entity(), "core", "group_exec")
			sp.AttrInt(g.execSpan, "call", int64(g.finishedSeq+1))
			sp.AttrInt(g.execSpan, "entries", int64(len(g.entries)))
			if name := px.fw.tenantName(g.host); name != "" {
				sp.AttrStr(g.execSpan, "tenant", name)
			}
		}
		if px.fw.cfg.WarmupPerOp > 0 && g.finishedSeq < px.fw.cfg.WarmupCalls {
			// First-iterations setup penalty (staging-buffer and queue
			// setup per peer in the modelled baseline).
			px.proc.AdvanceBusy(px.fw.cfg.WarmupPerOp * sim.Time(len(g.entries)))
		}
		progressed = true
	}

	for g.idx < len(g.entries) {
		e := &g.entries[g.idx]
		switch e.Type {
		case OpSend:
			px.postGroupSend(g, g.idx)
			g.idx++
			progressed = true
		case OpRecv:
			g.expected[e.Src]++
			g.idx++
			progressed = true
		case OpBarrier:
			// "After all the preceding sends are completed ..." — and all
			// receives recorded so far must have been delivered by the
			// remote proxies.
			if g.pending > 0 || !px.recvsSatisfied(g) {
				return progressed
			}
			g.numBarriers++
			g.idx++
			progressed = true
		}
	}

	// End of the entry queue: the call completes when every posted write
	// has finished and every expected delivery has arrived.
	if g.pending > 0 || !px.recvsSatisfied(g) {
		return progressed
	}
	g.running = false
	g.finishedSeq++
	px.sampleQueueDepth()
	root := g.roots[g.finishedSeq]
	px.spans().End(g.execSpan)
	g.execSpan = 0
	delete(g.roots, g.finishedSeq)
	// Completion-counter update to the host (the paper RDMA-writes a
	// pre-registered counter; a minimal control packet has the same cost).
	// The flight parents to the root span: the completion notification is
	// the tail of the collective's critical path.
	h := px.fw.hosts[g.host]
	px.ctx.PostSend(px.proc, h.ctx, &verbs.Packet{
		Kind: "gdone", Size: px.fw.cfg.CtrlSize,
		Payload: &gdoneMsg{GroupID: g.id, CallSeq: g.finishedSeq},
		Span:    root,
	})
	return true
}

// postGroupSend issues the RDMA for one send entry on the datapath the
// entry was recorded with, and notifies the destination's proxy on
// completion. A cross-registration returned by the datapath is memoized per
// entry when the group cache is on, so replays skip even the cache lookup.
func (px *Proxy) postGroupSend(g *proxyGroup, idx int) {
	e := &g.entries[idx]
	callNum := g.finishedSeq + 1 // the call currently executing
	exec := g.execSpan           // captured: the field clears when the call ends
	notify := func() {
		g.pending--
		pay := &dlvMsg{
			SrcHost: g.host, DstHost: e.Dst, DstGroup: e.DstGroup,
			Call: callNum, Entry: idx,
		}
		if px.fw.crashesConfigured() {
			// Counter write into destination host memory (crash-safe).
			h := px.fw.hosts[e.Dst]
			px.ctx.PostSend(px.proc, h.dlvCtx, &verbs.Packet{
				Kind: "dlv", Size: px.fw.cfg.CtrlSize, Payload: pay, Span: exec,
			})
			return
		}
		dst := px.fw.proxyFor(e.Dst)
		px.ctx.PostSend(px.proc, dst.ctx, &verbs.Packet{
			Kind: "dlv", Size: px.fw.cfg.CtrlSize, Payload: pay, Span: exec,
		})
	}

	g.pending++
	if px.sched != nil {
		px.wireCharge(px.sched.ten.TenantOf[g.host], e.Size)
	}
	if tr := px.fw.cl.Trace; tr.Enabled() {
		tr.Add(px.proc.Now(), fmt.Sprintf("proxy%d", px.global), "group-send",
			fmt.Sprintf("host%d->%d size=%d", g.host, e.Dst, e.Size))
	}
	dp := datapath.ForKind(e.Path)
	mr := dp.Execute(px, datapath.Transfer{
		SrcHost: g.host, DstRank: e.Dst, Size: e.Size,
		MKey: e.MKey, Cached: g.cachedMRs[idx],
		SrcAddr: e.SrcAddr, SrcRKey: e.SrcRKey,
		DstAddr: e.DstAddr, DstRKey: e.DstRKey,
		Span: exec,
	}, notify)
	if mr != nil && px.fw.cfg.GroupCache {
		g.cachedMRs[idx] = mr
	}
}
