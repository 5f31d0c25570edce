package core

import (
	"fmt"

	"repro/internal/datapath"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// recvBarrier is the block of receive-progress counters of one (host, group
// request) — the barrier counters of Section VII-C. want counts, per source
// rank and cumulatively across calls, the receive entries the group's engine
// has walked; got counts the delivery notifications that have arrived.
// missing is kept equal to Σ max(0, want[src]−got[src]), so "every delivery
// accounted so far is in" (isRecvBarrierDone of Algorithm 1) is missing == 0
// with no walk over the sources.
type recvBarrier struct {
	got, want []int32
	missing   int
}

// cover grows the counters to include src.
func (b *recvBarrier) cover(src int) {
	for src >= len(b.got) {
		b.got = append(b.got, 0)
		b.want = append(b.want, 0)
	}
}

// expect accounts one walked receive entry from src.
func (b *recvBarrier) expect(src int) {
	b.cover(src)
	b.want[src]++
	if b.got[src] < b.want[src] {
		b.missing++
	}
}

// deliver accounts one delivery notification from src.
func (b *recvBarrier) deliver(src int) {
	b.cover(src)
	b.got[src]++
	if b.got[src] <= b.want[src] {
		b.missing--
	}
}

// rewind sets the walked-receive counts to those of done whole calls of the
// entry queue, keeping the deliveries, and recomputes missing.
func (b *recvBarrier) rewind(entries []wireOp, done int) {
	clear(b.want)
	for i := range entries {
		if e := &entries[i]; e.Type == OpRecv {
			b.cover(e.Src)
			b.want[e.Src] += int32(done)
		}
	}
	b.missing = 0
	for src, w := range b.want {
		b.missing += max(0, int(w-b.got[src]))
	}
}

// proxyGroup is the DPU-side state of one offloaded group request — the
// entry of the paper's DPU group cache ("indexed by the host's request ID
// and rank", Section VII-D). A delivery notification may arrive before the
// group it counts toward is installed, so the entry is created by whichever
// touches it first and joins the progress engine's list when installed.
type proxyGroup struct {
	host      int
	id        int
	installed bool
	entries   []wireOp

	callSeq     int // latest call requested by the host
	finishedSeq int // calls fully executed
	running     bool
	idx         int // next entry to process in the running call
	pending     int // RDMA writes posted but not yet completed

	// bar holds the group's delivery counters. When crashes are configured
	// it is the block in the destination host's memory (RDMA counter
	// writes, Section VII-C), which survives a proxy failure and which the
	// proxy reads across the PCIe switch.
	bar *recvBarrier

	// cachedMRs memoizes cross-registrations per entry so replays skip even
	// the cache lookup ("the group entry queue also contains the GVMI
	// registration cache entry").
	cachedMRs []*verbs.MR

	// landed holds, per send entry, the remote-completion handler its write
	// is posted with. They are built once, when the group is installed, so a
	// replayed send builds no closure; each reads the running call's number
	// and execution span from the group when it fires, which is safe because
	// a call cannot finish while one of its writes is pending.
	landed []func(at sim.Time)

	// roots queues the host-side root spans of the unfinished calls, oldest
	// first (roots[i] belongs to call finishedSeq+1+i; 0 = untraced);
	// execSpan is the proxy's execution span for the running call.
	roots    []span.ID
	execSpan span.ID
}

// group returns the cache entry of (host, id), creating it on first touch.
func (px *Proxy) group(host, id int) *proxyGroup {
	local := host - px.node*px.fw.cl.Cfg.PPN // the proxy serves hosts of its own node
	gs := px.groups[local]
	if id < len(gs) && gs[id] != nil {
		return gs[id]
	}
	for id >= len(gs) {
		gs = append(gs, nil)
	}
	px.groups[local] = gs
	g := &proxyGroup{host: host, id: id}
	if px.fw.crashesConfigured() {
		g.bar = px.fw.hosts[host].barrier(id)
	} else {
		g.bar = new(recvBarrier)
	}
	gs[id] = g
	return g
}

// installGroup handles a full Group_Offload_packet.
func (px *Proxy) installGroup(m *groupPacket) {
	px.GroupMiss++
	px.mGroupMiss.Inc()
	px.sampleQueueDepth()
	g := px.group(m.HostRank, m.GroupID)
	// A request is immutable once recorded, so a re-install (group cache
	// off) carries the same pattern with fresh registrations. It may arrive
	// while an earlier call is running: that call goes on through the new
	// entries, and its pending sends notify the destinations those name —
	// the same ones, or the handlers built below would be wrong.
	if !g.installed {
		// A fresh entry starts at the host's call: the calls before it ran
		// on this proxy before a restart emptied its cache, and the host's
		// delivery counters already hold theirs.
		g.installed = true
		g.finishedSeq = m.CallSeq - 1
		g.bar.rewind(m.Entries, g.finishedSeq)
		px.groupList = append(px.groupList, g)
		g.landed = make([]func(sim.Time), len(m.Entries))
		for i := range m.Entries {
			if m.Entries[i].Type == OpSend {
				g.landed[i] = px.groupSendLanded(g, i)
			}
		}
	} else if !samePattern(g.entries, m.Entries) {
		panic(fmt.Sprintf("core: proxy %d: group %d/%d re-installed with a different pattern",
			px.global, m.HostRank, m.GroupID))
	}
	g.entries = m.Entries
	g.cachedMRs = make([]*verbs.MR, len(m.Entries))
	if m.CallSeq > g.callSeq {
		g.callSeq = m.CallSeq
	}
	g.noteRoot(m.CallSeq, m.Span)
}

// samePattern reports whether two entry queues describe the same pattern:
// everything but the registrations and addresses the gather phase resolved.
func samePattern(a, b []wireOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Type != y.Type || x.Size != y.Size || x.Tag != y.Tag || x.Path != y.Path ||
			x.Dst != y.Dst || x.DstGroup != y.DstGroup || x.Src != y.Src {
			return false
		}
	}
	return true
}

// noteRoot records the host-side root span a call arrived under. Calls
// arrive in order and leave from the front as they finish.
func (g *proxyGroup) noteRoot(call int, root span.ID) {
	i := call - g.finishedSeq - 1
	if root == 0 || i < 0 {
		return
	}
	for i >= len(g.roots) {
		g.roots = append(g.roots, 0)
	}
	g.roots[i] = root
}

// root returns the root span of the oldest unfinished call.
func (g *proxyGroup) root() span.ID {
	if len(g.roots) == 0 {
		return 0
	}
	return g.roots[0]
}

// replayGroup handles a cache-hit replay: only the request ID travelled.
func (px *Proxy) replayGroup(m *greplayMsg) {
	g := px.group(m.HostRank, m.GroupID)
	if !g.installed {
		if px.fw.crashesConfigured() {
			// The group cache died with a crash; tell the host so it fails
			// over to host-progressed execution.
			f := px.fw.gfailFree.get()
			*f = gfailMsg{GroupID: m.GroupID, CallSeq: m.CallSeq}
			px.ctx.PostSend(px.proc, px.fw.hosts[m.HostRank].ctx, px.fw.ctrlPacket("gfail", px.fw.cfg.CtrlSize, f, 0))
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
			g.execSpan = sp.Start(g.root(), span.ClassProxy,
				px.entity, "core", "group_exec")
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
			g.bar.expect(e.Src)
			g.idx++
			progressed = true
		case OpBarrier:
			// "After all the preceding sends are completed ..." — and all
			// receives recorded so far must have been delivered by the
			// remote proxies.
			if g.pending > 0 || g.bar.missing != 0 {
				return progressed
			}
			g.idx++
			progressed = true
		}
	}

	// End of the entry queue: the call completes when every posted write
	// has finished and every expected delivery has arrived.
	if g.pending > 0 || g.bar.missing != 0 {
		return progressed
	}
	g.running = false
	g.finishedSeq++
	px.sampleQueueDepth()
	root := g.root()
	px.spans().End(g.execSpan)
	g.execSpan = 0
	if len(g.roots) > 0 {
		g.roots = g.roots[:copy(g.roots, g.roots[1:])]
	}
	// Completion-counter update to the host (the paper RDMA-writes a
	// pre-registered counter; a minimal control packet has the same cost).
	// The flight parents to the root span: the completion notification is
	// the tail of the collective's critical path.
	done := px.fw.gdoneFree.get()
	*done = gdoneMsg{GroupID: g.id, CallSeq: g.finishedSeq}
	px.ctx.PostSend(px.proc, px.fw.hosts[g.host].ctx, px.fw.ctrlPacket("gdone", px.fw.cfg.CtrlSize, done, root))
	return true
}

// postGroupSend issues the RDMA for one send entry on the datapath the
// entry was recorded with; the entry's landed handler notifies the
// destination's proxy on completion. A cross-registration returned by the
// datapath is memoized per entry when the group cache is on, so replays skip
// even the cache lookup.
func (px *Proxy) postGroupSend(g *proxyGroup, idx int) {
	e := &g.entries[idx]
	g.pending++
	if px.sched != nil {
		px.wireCharge(px.sched.ten.TenantOf[g.host], e.Size)
	}
	dp := datapath.ForKind(e.Path)
	mr := dp.Execute(px, datapath.Transfer{
		SrcHost: g.host, DstRank: e.Dst, Size: e.Size,
		MKey: e.MKey, Cached: g.cachedMRs[idx],
		SrcAddr: e.SrcAddr, SrcRKey: e.SrcRKey,
		DstAddr: e.DstAddr, DstRKey: e.DstRKey,
		Span: g.execSpan,
	}, g.landed[idx])
	if mr != nil && px.fw.cfg.GroupCache {
		g.cachedMRs[idx] = mr
	}
}

// groupSendLanded builds the remote-completion handler of send entry idx:
// when the write has landed, the next engine round accounts the completion
// and bumps the delivery counter of the destination's group request.
func (px *Proxy) groupSendLanded(g *proxyGroup, idx int) func(sim.Time) {
	notify := func() {
		g.pending--
		e := &g.entries[idx]
		pkt := px.fw.dlvPacket(dlvMsg{
			SrcHost: g.host, DstHost: e.Dst, DstGroup: e.DstGroup,
			Call: g.finishedSeq + 1, Entry: idx,
		}, g.execSpan)
		if px.fw.crashesConfigured() {
			// Counter write into destination host memory (crash-safe).
			px.ctx.PostSend(px.proc, px.fw.hosts[e.Dst].dlvCtx, pkt)
			return
		}
		px.ctx.PostSend(px.proc, px.fw.proxyFor(e.Dst).ctx, pkt)
	}
	return func(sim.Time) { px.later(notify) }
}
