package core

import (
	"fmt"

	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Window is a region exposed for one-sided offloaded access: an IB rkey for
// inbound RDMA plus a GVMI mkey registered against the owner's proxy, so
// that proxy can source outbound transfers from it. Windows are created
// once (ExposeWindow) and published to peers out of band — the OpenSHMEM
// symmetric-heap model. Everything needed by a transfer then travels in a
// single control message to one proxy; neither side's CPU is involved in
// the data path.
type Window struct {
	Rank int
	Addr mem.Addr
	Size int
	RKey verbs.Key
	MKey gvmi.MKeyInfo
}

// oneSidedMsg asks a proxy to move data between two windows.
type oneSidedMsg struct {
	Initiator int   // rank to FIN
	ReqID     int64 // initiator's request
	SrcHost   int   // owner of the source window
	SrcMKey   gvmi.MKeyInfo
	SrcAddr   mem.Addr
	DstAddr   mem.Addr
	DstKey    verbs.Key
	Size      int

	// Span is the initiator's root span (0 = untraced).
	Span span.ID
}

// ExposeWindow registers [addr, addr+size) for one-sided access and returns
// the publishable handle. Registration costs are paid once, here.
func (h *Host) ExposeWindow(addr mem.Addr, size int) Window {
	px := h.fw.proxyFor(h.rank)
	mr := h.ctx.RegisterMR(h.proc, addr, size)
	info, err := h.fw.cl.GVMI.RegisterHost(h.proc, h.ctx, addr, size, px.gvmiID)
	if err != nil {
		panic(fmt.Sprintf("core: window registration: %v", err))
	}
	return Window{Rank: h.rank, Addr: addr, Size: size, RKey: mr.RKey(), MKey: info}
}

// checkRange validates a window-relative access.
func (w Window) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > w.Size {
		panic(fmt.Sprintf("core: window access [%d,+%d) outside size %d", off, n, w.Size))
	}
}

// PutOffload starts a one-sided offloaded write of n bytes from this host's
// window src (at srcOff) into dst (at dstOff) on dst.Rank. The transfer is
// performed by this host's proxy; Wait observes the FIN.
func (h *Host) PutOffload(src Window, srcOff int, dst Window, dstOff, n int) *OffloadRequest {
	if src.Rank != h.rank {
		panic("core: PutOffload source window must be local")
	}
	src.checkRange(srcOff, n)
	dst.checkRange(dstOff, n)
	// The record holds enough to re-post the write from the host NIC if the
	// proxy dies: the window keys resolve identically on the host.
	px := h.fw.proxyFor(h.rank)
	rec := h.newReq(reqPut, px)
	rec.lKey, rec.addr, rec.rKey, rec.rAddr, rec.size = src.RKey, src.Addr+mem.Addr(srcOff), dst.RKey, dst.Addr+mem.Addr(dstOff), n
	req := rec.req
	if sp := h.spans(); sp.Enabled() {
		req.span = sp.Start(0, span.ClassRank, h.entity, "core", "put_offload")
		sp.AttrInt(req.span, "dst", int64(dst.Rank))
		sp.AttrInt(req.span, "size", int64(n))
	}
	h.ctx.PostSend(h.proc, px.ctx, &verbs.Packet{
		Kind: "1sided", Size: ctrlSize + gvmi.WireSize,
		Payload: &oneSidedMsg{
			Initiator: h.rank, ReqID: req.id,
			SrcHost: h.rank, SrcMKey: src.MKey, SrcAddr: src.Addr + mem.Addr(srcOff),
			DstAddr: dst.Addr + mem.Addr(dstOff), DstKey: dst.RKey, Size: n,
			Span: req.span,
		},
		Span: req.span,
	})
	return req
}

// GetOffload starts a one-sided offloaded read of n bytes from window src
// (at srcOff, on src.Rank) into this host's window dst (at dstOff). The
// control message goes to the *source owner's* proxy, which sources the
// data from the owner's memory via cross-GVMI — the owner's CPU never runs.
func (h *Host) GetOffload(dst Window, dstOff int, src Window, srcOff, n int) *OffloadRequest {
	if dst.Rank != h.rank {
		panic("core: GetOffload destination window must be local")
	}
	src.checkRange(srcOff, n)
	dst.checkRange(dstOff, n)
	// The fallback is an RDMA read posted by the initiator: pull from the
	// remote window straight into the local one.
	px := h.fw.proxyFor(src.Rank)
	rec := h.newReq(reqGet, px)
	rec.lKey, rec.addr, rec.rKey, rec.rAddr, rec.size = dst.RKey, dst.Addr+mem.Addr(dstOff), src.RKey, src.Addr+mem.Addr(srcOff), n
	req := rec.req
	if sp := h.spans(); sp.Enabled() {
		req.span = sp.Start(0, span.ClassRank, h.entity, "core", "get_offload")
		sp.AttrInt(req.span, "src", int64(src.Rank))
		sp.AttrInt(req.span, "size", int64(n))
	}
	h.ctx.PostSend(h.proc, px.ctx, &verbs.Packet{
		Kind: "1sided", Size: ctrlSize + gvmi.WireSize,
		Payload: &oneSidedMsg{
			Initiator: h.rank, ReqID: req.id,
			SrcHost: src.Rank, SrcMKey: src.MKey, SrcAddr: src.Addr + mem.Addr(srcOff),
			DstAddr: dst.Addr + mem.Addr(dstOff), DstKey: dst.RKey, Size: n,
			Span: req.span,
		},
		Span: req.span,
	})
	return req
}

// handleOneSided executes a window-to-window transfer on the proxy. Windows
// publish cross-GVMI mkeys, so one-sided transfers always run the CrossGVMI
// datapath — the owner's CPU never participates.
func (px *Proxy) handleOneSided(m *oneSidedMsg) {
	px.execute(datapath.KindCrossGVMI, datapath.Transfer{
		SrcHost: m.SrcHost, DstRank: m.Initiator, Size: m.Size,
		MKey:    m.SrcMKey,
		SrcAddr: m.SrcAddr,
		DstAddr: m.DstAddr, DstRKey: m.DstKey,
		Span: m.Span,
	}, sim.Func(func(sim.Time) {
		px.later(sim.Func(func(sim.Time) { px.sendFIN(m.Initiator, m.ReqID, m.Span) }))
	}), nil)
}
