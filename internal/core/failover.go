package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// This file is the host side of crash tolerance. Every host keeps enough
// state to finish its outstanding communication without the DPU, and pays
// nothing for it until a proxy crashes:
//
//   - delivery counters (Section VII-C) belong to the receiving host
//     (Host.barriers) and count each notification exactly once, so the
//     host can walk a group's entry queue on the same counters its proxy
//     walked (see recvBarrier);
//   - group requests keep their wire entries (g.wire), so a host can
//     re-execute the whole pattern itself with plain host-NIC RDMA writes —
//     the "host-progressed MPI" fallback. Re-execution is idempotent: data
//     writes repeat byte-identical payloads and notifications are deduped
//     at the destination;
//   - the request table (Host.reqs) records what a basic-primitive send
//     needs for an eager host-to-host push (foSendMsg), acknowledged by the
//     receiver, and what a one-sided request needs to be re-posted from the
//     initiating host's own NIC.
//
// Detection is heartbeat-based: a live proxy refreshes a liveness counter
// in host memory (zero wire cost, like the delivery counters); a host
// declares the proxy dead once the counter has been stale for
// HeartbeatTimeout. In the simulation that is equivalent to — and modelled
// as — `crashed && now-crashedAt >= timeout`, with a one-shot kernel timer
// waking the hosts at exactly the detection instant. A proxy that restarts
// is detected through its generation counter: state posted under an older
// generation is gone, so the host fails over just the same (permanently —
// rebinding to a restarted proxy is future work), and the restarted proxy
// refuses a group install stamped with an older generation, so the host
// fallback is the group's only executor.

// fbCall is one group call being executed by the host itself, walking the
// same entry queue the proxy would have walked, on the same counters.
type fbCall struct {
	g    *GroupRequest
	call int
	walk
	span span.ID // fallback-execution span, under the call's root
}

// later queues a for the next waitFor round (used from RDMA completion
// handlers, which cannot post work themselves).
func (h *Host) later(a sim.Action) {
	h.deferred = append(h.deferred, a)
	h.ctx.InboxCond.Broadcast()
}

// runDeferred executes queued completion actions in process context.
func (h *Host) runDeferred() {
	for len(h.deferred) > 0 {
		acts := h.deferred
		h.deferred = nil
		for _, a := range acts {
			a.Fire(h.proc.Now())
		}
	}
}

// outstanding returns the recorded requests pred selects, oldest first.
func (h *Host) outstanding(pred func(*reqRec) bool) []*reqRec {
	var out []*reqRec
	for _, r := range h.reqs {
		if pred(r) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b *reqRec) int { return cmp.Compare(a.req.id, b.req.id) })
	return out
}

// proxyLost reports whether work posted to px under generation gen is gone:
// either the proxy has been silent past the heartbeat timeout, or it came
// back from a restart with a newer generation (empty state).
func (fw *Framework) proxyLost(px *Proxy, gen int, now sim.Time) bool {
	if px.crashed {
		return now-px.crashedAt >= fw.hbTimeout()
	}
	return px.gen > gen
}

// checkRecovery is the host's failure detector, run once some proxy has
// crashed: it declares the host's own proxy dead (triggering full failover)
// and re-posts one-sided requests whose executing proxy — possibly a remote
// one — has died.
func (h *Host) checkRecovery() {
	fw := h.fw
	now := h.proc.Now()
	if !h.failedOver {
		px := fw.proxyFor(h.rank)
		lost := false
		for _, g := range h.groups {
			lost = lost || g.sentToProxy && g.doneSeq < g.callSeq && fw.proxyLost(px, g.sentGen, now)
		}
		for _, r := range h.reqs {
			lost = lost || r.kind == reqSend && !r.moved && fw.proxyLost(px, r.gen, now)
		}
		if lost {
			h.failover(now)
		}
	}
	for _, r := range h.outstanding(func(r *reqRec) bool {
		return (r.kind == reqPut || r.kind == reqGet) && !r.moved && fw.proxyLost(r.proxy, r.gen, now)
	}) {
		h.reissueOneSided(r, now)
	}
}

// failover switches the host permanently to host-progressed execution: all
// incomplete group calls are re-executed by the host itself and all
// outstanding basic sends are pushed eagerly to their peers.
func (h *Host) failover(now sim.Time) {
	fw := h.fw
	h.failedOver = true
	h.Failovers++
	fw.cl.Met.Counter("core", h.entity, "heartbeat_losses").Inc()
	fw.cl.Met.Counter("core", h.entity, "failovers").Inc()
	if inj := fw.cl.Inj; inj.Tracing() {
		inj.Note(now, span.ClassRank, h.entity, "heartbeat-loss",
			fmt.Sprintf("proxy%d silent for %s", fw.proxyFor(h.rank).global, fw.hbTimeout()))
		inj.Note(now, span.ClassRank, h.entity, "failover",
			"switching to host-progressed fallback")
	}
	for _, g := range h.groups {
		for c := g.doneSeq + 1; g.sentToProxy && c <= g.callSeq; c++ {
			h.startFallbackCall(g, c)
		}
	}
	for _, r := range h.outstanding(func(r *reqRec) bool { return r.kind == reqSend && !r.moved }) {
		h.foSendNow(r)
	}
}

// startFallbackCall queues one group call for host-progressed execution.
// The re-execution stays attributed to the call's original root span.
func (h *Host) startFallbackCall(g *GroupRequest, call int) {
	fb := &fbCall{g: g, call: call}
	if sp := h.spans(); sp.Enabled() {
		fb.span = sp.Start(g.roots[call-1], span.ClassRank, h.entity, "core", "fallback_exec")
		sp.AttrInt(fb.span, "call", int64(call))
	}
	h.fbRun = append(h.fbRun, fb)
	h.FallbackCalls++
}

// progressFallback advances queued fallback calls in order (calls of one
// host are sequential, like the proxy's engine). Each walks the entry queue
// with the proxy engine's loop (walk.advance) on the group's counters; as
// the host is the group's only executor, a call starts from the walked
// receive counts of every call before it.
func (h *Host) progressFallback() {
	for len(h.fbRun) > 0 {
		fb := h.fbRun[0]
		g, bar := fb.g, h.barrier(fb.g.id)
		if fb.idx == 0 {
			bar.rewind(g.wire, fb.call-1)
		}
		if _, done := fb.advance(g.wire, bar, func(i int) bool {
			h.fbPostSend(fb, i)
			return false
		}); !done {
			return
		}
		g.doneSeq = max(g.doneSeq, fb.call)
		h.spans().End(fb.span)
		h.fbRun = h.fbRun[1:]
	}
}

// fbPostSend re-executes one send entry from the host's own NIC: a direct
// RDMA write into the destination buffer (the gathered wire entry has its
// address and rkey), followed by the delivery notification, which the
// destination counts once however many executors sent it.
func (h *Host) fbPostSend(fb *fbCall, idx int) {
	e := &fb.g.wire[idx]
	h.curSpan = fb.span
	mr := h.ibRegister(e.SrcAddr, e.Size)
	h.curSpan = 0
	fb.pending++
	h.FallbackWrites++
	m := dlvMsg{SrcHost: int32(h.rank), DstHost: e.Peer, DstGroup: e.DstGroup, Call: int32(fb.call), Entry: int32(idx)}
	err := h.ctx.PostWrite(h.proc, verbs.WriteOp{
		LocalKey: mr.LKey(), LocalAddr: e.SrcAddr,
		RemoteKey: e.DstRKey, RemoteAddr: e.DstAddr,
		Size: e.Size,
		Span: fb.span,
		OnRemoteComplete: sim.Func(func(sim.Time) {
			h.later(sim.Func(func(sim.Time) {
				fb.pending--
				h.ctx.PostSend(h.proc, h.fw.hosts[m.DstHost].dlvEP, h.fw.dlvPacket(m, fb.span))
			}))
		}),
	})
	if err != nil {
		panic(fmt.Sprintf("core: rank %d fallback write: %v", h.rank, err))
	}
}

// foSendNow pushes an outstanding basic send eagerly to the peer host.
func (h *Host) foSendNow(rec *reqRec) {
	rec.moved = true
	h.FoSends++
	var data []byte
	if d := h.site.Space.ReadAt(rec.addr, rec.size); d != nil {
		data = make([]byte, rec.size)
		copy(data, d)
	}
	h.ctx.PostSend(h.proc, h.fw.hosts[rec.peer].ctx, &verbs.Packet{
		Kind: "fosend", Size: ctrlSize + rec.size,
		Payload: &foSendMsg{
			Src: h.rank, Dst: rec.peer, Tag: rec.tag, Size: rec.size,
			ReqID: rec.req.id, Data: data, Span: rec.req.span,
		},
		Span: rec.req.span,
	})
}

// takeFoSend removes and returns a queued eager push matching (src, tag).
func (h *Host) takeFoSend(src, tag int) *foSendMsg {
	for i, m := range h.foQ {
		if m.Src == src && m.Tag == tag {
			h.foQ = append(h.foQ[:i], h.foQ[i+1:]...)
			return m
		}
	}
	return nil
}

// handleFoSend matches an eager fallback push against the oldest pending
// receive of its (src, tag), like the proxy's match queues, or parks it
// until the receive is posted.
func (h *Host) handleFoSend(m *foSendMsg) {
	if recv := h.outstanding(func(r *reqRec) bool {
		return r.kind == reqRecv && r.peer == m.Src && r.tag == m.Tag
	}); len(recv) > 0 {
		h.acceptFoSend(recv[0], m)
		return
	}
	h.foQ = append(h.foQ, m)
}

// acceptFoSend completes receive rec with the payload of an eager push and
// acknowledges the push, so the sender's request completes. The ack flight
// parents to the sender's root span (carried in the push).
func (h *Host) acceptFoSend(rec *reqRec, m *foSendMsg) {
	if m.Data != nil {
		h.site.Space.WriteAt(rec.addr, m.Data, m.Size)
	}
	h.complete(rec.req.id)
	h.ctx.PostSend(h.proc, h.fw.hosts[m.Src].ctx, &verbs.Packet{
		Kind: "foack", Size: ctrlSize, Payload: &foAckMsg{ReqID: m.ReqID},
		Span: m.Span,
	})
}

// reissueOneSided re-posts a one-sided transfer from the initiating host's
// own NIC after the executing proxy died. The recorded window keys resolve
// on the host exactly as they did on the proxy, so the re-execution is
// byte-identical; a late FIN from the original attempt is ignored by the
// request table (idempotent completion).
func (h *Host) reissueOneSided(rec *reqRec, now sim.Time) {
	rec.moved = true
	h.OsReissues++
	if inj := h.fw.cl.Inj; inj.Tracing() {
		inj.Note(now, span.ClassRank, h.entity, "1sided-reissue",
			fmt.Sprintf("proxy%d dead, re-posting size=%d", rec.proxy.global, rec.size))
	}
	id := rec.req.id
	complete := sim.Func(func(sim.Time) { h.later(sim.Func(func(sim.Time) { h.complete(id) })) })
	var err error
	if rec.kind == reqPut {
		err = h.ctx.PostWrite(h.proc, verbs.WriteOp{
			LocalKey: rec.lKey, LocalAddr: rec.addr,
			RemoteKey: rec.rKey, RemoteAddr: rec.rAddr,
			Size: rec.size, Span: rec.req.span, OnRemoteComplete: complete,
		})
	} else {
		err = h.ctx.PostRead(h.proc, verbs.ReadOp{
			LocalKey: rec.lKey, LocalAddr: rec.addr,
			RemoteKey: rec.rKey, RemoteAddr: rec.rAddr,
			Size: rec.size, Span: rec.req.span, OnComplete: complete,
		})
	}
	if err != nil {
		panic(fmt.Sprintf("core: rank %d one-sided reissue: %v", h.rank, err))
	}
}
