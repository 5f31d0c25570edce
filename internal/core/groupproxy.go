package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// recvBarrier is the block of receive-progress counters of one (host, group
// request) — the barrier counters of Section VII-C. It belongs to the
// receiving host (Host.barriers): whoever executes the group reads it, its
// proxy or, after a failover, the host itself. Per source rank, want counts
// cumulatively across calls the receive entries the executor has walked and
// got the delivery notifications counted. missing is kept equal to
// Σ max(0, want−got), so "every delivery accounted so far is in"
// (isRecvBarrierDone of Algorithm 1) is missing == 0 with no walk over the
// sources.
//
// A notification is counted once however often it arrives — a fallback host
// re-executing a call re-sends what its proxy may already have sent. Each
// names its (call, entry). Per source, done counts the calls whose
// deliveries (per of them a call, one per receive entry from the source) are
// all in; early holds, sorted, the deliveries of later calls until theirs
// are all in too, so it stays short: one call's worth per source, while
// calls arrive in order.
type recvBarrier struct {
	src     []srcCounters // by source rank
	missing int
	early   []earlyDlv
}

type srcCounters struct {
	got, want  int32
	done, held int32 // calls whose deliveries are all in; deliveries of the next one in early
	per        int32
}

// earlyDlv is one counted delivery beyond its source's done calls.
type earlyDlv struct{ src, call, entry int32 }

func (d earlyDlv) compare(e earlyDlv) int {
	return cmp.Or(cmp.Compare(d.src, e.src), cmp.Compare(d.call, e.call), cmp.Compare(d.entry, e.entry))
}

// cover grows the counters to include src.
func (b *recvBarrier) cover(src int) {
	if n := src + 1 - len(b.src); n > 0 {
		b.src = append(b.src, make([]srcCounters, n)...)
	}
}

// expect accounts one walked receive entry from src.
func (b *recvBarrier) expect(src int) {
	b.cover(src)
	c := &b.src[src]
	c.want++
	if c.got < c.want {
		b.missing++
	}
}

// count accounts delivery (call, entry) from src unless it was counted
// before, and reports whether it was new.
func (b *recvBarrier) count(src, call, entry int) bool {
	b.cover(src)
	c := &b.src[src]
	d := earlyDlv{int32(src), int32(call), int32(entry)}
	switch {
	case d.call <= c.done:
		return false
	case d.call == c.done+1 && c.per == 1:
		// The call's only delivery: it completes the call (none of this call
		// is held, or it would be complete already).
		c.done++
		if len(b.early) > 0 {
			b.settle(d.src)
		}
	default:
		// In order, d sorts last: no search, no shift.
		if n := len(b.early); n == 0 || b.early[n-1].compare(d) < 0 {
			b.early = append(b.early, d)
		} else if i, seen := slices.BinarySearchFunc(b.early, d, earlyDlv.compare); seen {
			return false
		} else {
			b.early = slices.Insert(b.early, i, d)
		}
		if d.call == c.done+1 {
			if c.held++; c.held == c.per {
				b.settle(d.src)
			}
		}
	}
	c.got++
	if c.got <= c.want {
		b.missing--
	}
	return true
}

// settle moves src's done past every call whose deliveries early holds in
// full, and drops them: the next call's held deliveries sort together, the
// following call's right after them.
func (b *recvBarrier) settle(src int32) {
	c := &b.src[src]
	lo, _ := slices.BinarySearchFunc(b.early, earlyDlv{src, c.done + 1, math.MinInt32}, earlyDlv.compare)
	for {
		c.held = 0
		for _, e := range b.early[lo:] {
			if e.src != src || e.call != c.done+1 {
				break
			}
			c.held++
		}
		if c.held < c.per {
			return
		}
		b.early = slices.Delete(b.early, lo, lo+int(c.held))
		c.done++
	}
}

// rewind sets the walked-receive counts to those of done whole calls of the
// entry queue, keeping the deliveries, and recomputes missing.
func (b *recvBarrier) rewind(entries []wireOp, done int) {
	for i := range b.src {
		b.src[i].want = 0
	}
	for i := range entries {
		if e := &entries[i]; e.Type == OpRecv {
			b.cover(int(e.Peer))
			b.src[e.Peer].want += int32(done)
		}
	}
	b.missing = 0
	for _, c := range b.src {
		b.missing += max(0, int(c.want-c.got))
	}
}

// walk is one executor's place in a group call's entry queue.
type walk struct {
	idx     int // next entry to process in the running call
	pending int // sends posted but not yet landed
}

// blocked reports whether the walk stands at a barrier entry or at the end of
// the queue with a send still in flight or an expected delivery missing:
// "after all the preceding sends are completed ..." — and all receives
// recorded so far must have been delivered by the remote proxies.
func (w *walk) blocked(entries []wireOp, bar *recvBarrier) bool {
	return (w.idx == len(entries) || entries[w.idx].Type == OpBarrier) && (w.pending > 0 || bar.missing != 0)
}

// advance is the entry loop of Algorithm 1, shared by the proxy engine and
// the host fallback: it posts send entries through post, accounts receive
// entries in bar, and passes a barrier entry once it is not blocked. It
// reports whether it moved, and whether the call is complete: every entry
// walked, every send landed, every delivery in. A post that reports true —
// the proxy's, whose posting is a costed call — ends the loop right after
// its entry; calling advance again goes on from the next one.
func (w *walk) advance(entries []wireOp, bar *recvBarrier, post func(idx int) (cut bool)) (moved, done bool) {
	for !w.blocked(entries, bar) {
		if w.idx == len(entries) {
			return moved, true
		}
		cut := false
		switch e := &entries[w.idx]; e.Type {
		case OpSend:
			cut = post(w.idx)
		case OpRecv:
			bar.expect(int(e.Peer))
		}
		w.idx++
		moved = true
		if cut {
			break
		}
	}
	return moved, false
}

// proxyGroup is the DPU-side state of one offloaded group request — the
// entry of the paper's DPU group cache ("indexed by the host's request ID
// and rank", Section VII-D), created when the group is installed.
type proxyGroup struct {
	px      *Proxy
	host    int
	id      int
	path    datapath.Kind // the datapath the send entries execute on
	entries []wireOp

	callSeq     int // latest call requested by the host
	finishedSeq int // calls fully executed
	running     bool
	walk

	// bar is the group's delivery counters, in the host's block (RDMA
	// counter writes, Section VII-C).
	bar *recvBarrier

	// sends holds, per send entry in entry order, the remote-completion
	// handler its write is posted with and its memoized cross-registration,
	// so replays skip even the cache lookup ("the group entry queue also
	// contains the GVMI registration cache entry"); sent counts the running
	// call's posted sends, so sends[sent] is the next one's. The slice is
	// built once, when the group is installed, so no send builds a closure;
	// each handler reads the running call's number and execution span from
	// the group when it fires, which is safe because a call cannot finish
	// while one of its writes is pending.
	sends []groupSend
	sent  int

	// roots queues the host-side root spans of the unfinished calls, oldest
	// first (roots[i] belongs to call finishedSeq+1+i; 0 = untraced);
	// execSpan is the proxy's execution span for the running call.
	roots    []span.ID
	execSpan span.ID
}

// group returns the cache entry of (host, id), or nil if the group is not
// installed.
func (px *Proxy) group(host, id int) *proxyGroup {
	gs := px.groups[px.hostSlot(host)]
	if id < len(gs) {
		return gs[id]
	}
	return nil
}

// installGroup handles a full Group_Offload_packet. One posted before the
// proxy's last restart is refused: its host has lost the proxy and runs the
// group itself.
func (px *Proxy) installGroup(m *groupPacket) {
	if m.Gen < px.gen {
		return
	}
	px.GroupMiss++
	px.mGroupMiss.Inc()
	px.sampleQueueDepth()
	g := px.group(m.HostRank, m.GroupID)
	// A request is immutable once recorded, so a re-install (group cache
	// off) carries the same pattern with fresh registrations. It may arrive
	// while an earlier call is running: that call goes on through the new
	// entries, and its pending sends notify the destinations those name —
	// the same ones, or the handlers built below would be wrong.
	if g == nil {
		// A fresh entry starts at the host's call: the calls before it ran
		// on this proxy before a restart emptied its cache, and the host's
		// delivery counters already hold theirs.
		g = &proxyGroup{px: px, host: m.HostRank, id: m.GroupID, path: m.Path, finishedSeq: m.CallSeq - 1,
			bar: px.fw.hosts[m.HostRank].barrier(m.GroupID)}
		g.bar.rewind(m.Entries, g.finishedSeq)
		gs := &px.groups[px.hostSlot(m.HostRank)]
		for m.GroupID >= len(*gs) {
			*gs = append(*gs, nil)
		}
		(*gs)[m.GroupID] = g
		px.groupList = append(px.groupList, g)
		n := 0
		for i := range m.Entries {
			if m.Entries[i].Type == OpSend {
				n++
			}
		}
		g.sends = make([]groupSend, 0, n)
		if px.fw.cfg.RegCaches && m.Path.SrcReg() == datapath.RegGVMI {
			// Each send's cross-registration joins the host's cache slot.
			px.crossCache.Reserve(px.hostSlot(m.HostRank), n)
		}
		for i := range m.Entries {
			if m.Entries[i].Type == OpSend {
				g.sends = append(g.sends, groupSend{g: g, idx: i})
			}
		}
	} else if g.path != m.Path || !samePattern(g.entries, m.Entries) {
		panic(fmt.Sprintf("core: proxy %d: group %d/%d re-installed with a different pattern",
			px.global, m.HostRank, m.GroupID))
	} else {
		// Fresh registrations: forget the memos (none is written without
		// the group cache, the one setting that re-installs).
		for i := range g.sends {
			g.sends[i].mr = nil
		}
	}
	g.entries = m.Entries
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
		if x.Type != y.Type || x.Size != y.Size || x.Peer != y.Peer || x.DstGroup != y.DstGroup {
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
	if g == nil {
		if px.gen > 0 {
			// The group cache died with a crash; tell the host so it fails
			// over to host-progressed execution.
			f := px.fw.gfailFree.Get()
			*f = gfailMsg{GroupID: m.GroupID, CallSeq: m.CallSeq}
			px.send(px.fw.hosts[m.HostRank].ctx, px.fw.ctrlPacket("gfail", ctrlSize, f, 0))
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
//
// A costed call — the warm-up, a send entry's transfer, the completion
// notice — cuts the advance short, and the engine calls it again once the
// cost is paid while the call is still running; a cut advance has always
// progressed.
func (px *Proxy) advanceGroup(g *proxyGroup) bool {
	progressed := false
	if !g.running {
		if g.finishedSeq >= g.callSeq {
			return false
		}
		g.running = true
		g.idx, g.sent = 0, 0
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
			px.eng.busy(px.fw.cfg.WarmupPerOp * sim.Time(len(g.entries)))
			return true
		}
		progressed = true
	} else if g.blocked(g.entries, g.bar) {
		return false // the engine's usual answer: waiting on a write or a delivery
	}
	moved, done := g.advance(g.entries, g.bar, func(i int) bool {
		px.postGroupSend(g, i)
		return true
	})
	if !done {
		return progressed || moved
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
	m := px.fw.gdoneFree.Get()
	*m = gdoneMsg{GroupID: g.id, CallSeq: g.finishedSeq}
	px.send(px.fw.hosts[g.host].ctx, px.fw.ctrlPacket("gdone", ctrlSize, m, root))
	return true
}

// postGroupSend issues the RDMA for one send entry on the datapath the
// entry was recorded with; the entry's landed handler notifies the
// destination's proxy on completion. The entry's cross-registration is
// memoized when the group cache is on, so replays skip even the cache
// lookup.
func (px *Proxy) postGroupSend(g *proxyGroup, idx int) {
	e, s := &g.entries[idx], &g.sends[g.sent]
	g.sent++
	g.pending++
	if px.sched != nil {
		px.wireCharge(px.sched.ten.TenantOf[g.host], e.Size)
	}
	t := datapath.Transfer{
		SrcHost: g.host, DstRank: int(e.Peer), Size: e.Size, MR: s.mr,
		SrcAddr: e.SrcAddr, DstAddr: e.DstAddr, DstRKey: e.DstRKey,
		Span: g.execSpan,
	}
	if g.path.SrcReg() == datapath.RegGVMI {
		t.MKey = gvmi.MKeyInfo{Addr: e.SrcAddr, Size: e.Size, MKey: e.SrcKey, Gvmi: e.Gvmi}
	} else {
		t.SrcRKey = e.SrcKey
	}
	px.execute(g.path, t, s, &s.mr)
}

// groupSend is the remote-completion handler of send entry idx: when the
// write has landed, its twin groupSendDone runs in the next engine round.
// mr is the entry's memoized cross-registration.
type groupSend struct {
	g   *proxyGroup
	idx int
	mr  *verbs.MR
}

func (s *groupSend) Fire(sim.Time) { s.g.px.later((*groupSendDone)(s)) }

// groupSendDone accounts a landed send entry and bumps the delivery counter
// of the destination's group request.
type groupSendDone groupSend

func (d *groupSendDone) Fire(sim.Time) {
	g, px := d.g, d.g.px
	g.pending--
	e := &g.entries[d.idx]
	px.send(px.fw.hosts[e.Peer].dlvEP, px.fw.dlvPacket(dlvMsg{
		SrcHost: int32(g.host), DstHost: e.Peer, DstGroup: e.DstGroup,
		Call: int32(g.finishedSeq + 1), Entry: int32(d.idx),
	}, g.execSpan))
}
