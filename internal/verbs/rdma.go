package verbs

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
)

// WriteOp describes one RDMA-write work request.
type WriteOp struct {
	LocalKey   Key      // lkey covering the source range
	LocalAddr  mem.Addr // source address (in the lkey's space)
	RemoteKey  Key      // rkey covering the destination range
	RemoteAddr mem.Addr // destination address
	Size       int

	// OnLocalComplete fires (handler context) when the sender endpoint has
	// finished injecting the message (CQE on the posting side). Under fault
	// injection it fires once, for the attempt that succeeds.
	OnLocalComplete func(at sim.Time)
	// OnRemoteComplete fires (handler context) when the data has landed in
	// the destination memory.
	OnRemoteComplete func(at sim.Time)
	// Notify, if non-nil, is delivered into the destination context's inbox
	// with the data (RDMA write with immediate).
	Notify *Packet
	// OnError fires (handler context) if fault injection exhausts the
	// operation's retry budget; the op will never complete. Nil leaves the
	// failure counted in fault.Stats and traced only.
	OnError func(at sim.Time)

	// Span is the causal parent for the op's "rdma_write" span (0 = none).
	Span span.ID
}

// PostWrite posts an RDMA write on behalf of p through c's endpoint.
// Data is read from the lkey's backing space (which, for cross-GVMI mkeys,
// is a *host* space even though c lives on the DPU) and written into the
// rkey's space. Both keys are validated like an HCA would.
//
// Under fault injection the NIC retransmits autonomously on error CQEs and
// wire loss (exponential backoff, no further CPU cost); after the retry
// budget the op terminates via OnError.
func (c *Ctx) PostWrite(p *sim.Proc, op WriteOp) error {
	src, err := c.reg.lookupKey(op.LocalKey, op.LocalAddr, op.Size)
	if err != nil {
		return err
	}
	dst, err := c.reg.lookupKey(op.RemoteKey, op.RemoteAddr, op.Size)
	if err != nil {
		return err
	}
	k := c.reg.f.Kernel()
	var ws span.ID
	if c.reg.sp.Enabled() {
		// Op span: from posting (before the WR cost) to remote completion.
		ws = c.reg.sp.StartAt(op.Span, span.ClassHCA, c.name, "verbs", "rdma_write", k.Now())
		c.reg.sp.AttrInt(ws, "size", int64(op.Size))
	}
	p.AdvanceBusy(c.reg.costs.PostWR)

	dstCtx := dst.ctx
	if c.reg.inj == nil {
		// Fast path: the delivery rides a pooled flight record instead of a
		// closure, and the payload copy reuses the flight's scratch buffer —
		// zero allocations per op in steady state (see pool.go).
		fl := c.reg.getWriteFlight()
		fl.c, fl.dst, fl.dstCtx = c, dst, dstCtx
		fl.addr, fl.size = op.RemoteAddr, op.Size
		if d := src.space.ReadAt(op.LocalAddr, op.Size); d != nil {
			fl.buf = append(fl.buf[:0], d...)
			fl.backed = true
		}
		fl.notify, fl.onRem, fl.ws = op.Notify, op.OnRemoteComplete, ws
		txDone, _ := c.reg.f.TransferActionCtx(c.ep, dstCtx.ep, op.Size+c.reg.costs.RDMAHdr, fl, ws)
		if op.OnLocalComplete != nil {
			k.AtCall(txDone-k.Now(), op.OnLocalComplete)
		}
		return nil
	}
	var payload []byte
	if d := src.space.ReadAt(op.LocalAddr, op.Size); d != nil {
		payload = make([]byte, op.Size)
		copy(payload, d)
	}
	if ws != 0 {
		// Close the op span even if the retry budget is exhausted.
		orig := op.OnError
		op.OnError = func(at sim.Time) {
			c.reg.sp.AttrStr(ws, "error", "retry_exhausted")
			c.reg.sp.EndAt(ws, at)
			if orig != nil {
				orig(at)
			}
		}
	}
	c.writeAttempt(op, dst, dstCtx, payload, 1, ws)
	return nil
}

// writeAttempt performs one try of a (possibly retransmitted) RDMA write.
// It may run in process context (first attempt, from PostWrite) or handler
// context (retransmissions); it consumes no CPU time itself.
func (c *Ctx) writeAttempt(op WriteOp, dst *MR, dstCtx *Ctx, payload []byte, attempt int, ws span.ID) {
	k := c.reg.f.Kernel()
	inj := c.reg.inj
	if inj.CQError() {
		// The WQE completed with an error status before reaching the wire.
		c.reg.mErrorCQEs.Inc()
		if inj.Tracing() {
			inj.Note(k.Now(), span.ClassHCA, c.name, "cq-error", fmt.Sprintf("write size=%d attempt=%d", op.Size, attempt))
		}
		c.retryOrFail("write", op.Size, attempt, k.Now(),
			func() { c.writeAttempt(op, dst, dstCtx, payload, attempt+1, ws) },
			op.OnError)
		return
	}
	txDone, _, _, fate := c.reg.f.TransferFatedCtx(c.ep, dstCtx.ep, op.Size+c.reg.costs.RDMAHdr, func() {
		dst.space.WriteAt(op.RemoteAddr, payload, op.Size)
		c.reg.sp.EndAt(ws, k.Now())
		if op.Notify != nil {
			dstCtx.deliver(op.Notify)
		}
		if op.OnRemoteComplete != nil {
			op.OnRemoteComplete(k.Now())
		}
	}, ws)
	if fate == fault.FateDrop || fate == fault.FateCorrupt {
		// The transport timer will fire after the injection completed.
		c.retryOrFail("write", op.Size, attempt, txDone,
			func() { c.writeAttempt(op, dst, dstCtx, payload, attempt+1, ws) },
			op.OnError)
		return
	}
	if op.OnLocalComplete != nil {
		k.AtCall(txDone-k.Now(), op.OnLocalComplete)
	}
}

// retryOrFail schedules a retransmission with exponential backoff measured
// from `from`, or terminates the operation when the budget is exhausted.
func (c *Ctx) retryOrFail(kind string, size, attempt int, from sim.Time, again func(), onErr func(at sim.Time)) {
	k := c.reg.f.Kernel()
	inj := c.reg.inj
	rc := inj.Retry()
	if attempt >= rc.MaxAttempts {
		inj.Stats.Exhausted++
		if inj.Tracing() {
			inj.Note(k.Now(), span.ClassHCA, c.name, "retry-exhausted",
				fmt.Sprintf("%s size=%d after %d attempts", kind, size, attempt))
		}
		if onErr != nil {
			k.AtCall(from-k.Now(), onErr)
		}
		return
	}
	inj.Stats.Retries++
	c.reg.mRetries.Inc()
	c.reg.mBackoffNS.Add(int64(rc.Delay(attempt)))
	if inj.Tracing() {
		inj.Note(k.Now(), span.ClassHCA, c.name, "retry",
			fmt.Sprintf("%s size=%d attempt=%d backoff=%s", kind, size, attempt, rc.Delay(attempt)))
	}
	k.At(from-k.Now()+rc.Delay(attempt), again)
}

// ReadOp describes one RDMA-read work request.
type ReadOp struct {
	LocalKey   Key      // lkey covering the destination range (local)
	LocalAddr  mem.Addr // where fetched data lands
	RemoteKey  Key      // rkey covering the remote source
	RemoteAddr mem.Addr
	Size       int

	// OnComplete fires when the fetched data has landed locally.
	OnComplete func(at sim.Time)
	// OnError fires if fault injection exhausts the retry budget.
	OnError func(at sim.Time)

	// Span is the causal parent for the op's "rdma_read" span (0 = none).
	Span span.ID
}

// PostRead posts an RDMA read: a small request travels to the remote
// endpoint, whose HCA streams the data back without remote CPU involvement.
// Under fault injection, loss of either leg retries the whole operation.
func (c *Ctx) PostRead(p *sim.Proc, op ReadOp) error {
	dst, err := c.reg.lookupKey(op.LocalKey, op.LocalAddr, op.Size)
	if err != nil {
		return err
	}
	src, err := c.reg.lookupKey(op.RemoteKey, op.RemoteAddr, op.Size)
	if err != nil {
		return err
	}
	k := c.reg.f.Kernel()
	var rs span.ID
	if c.reg.sp.Enabled() {
		rs = c.reg.sp.StartAt(op.Span, span.ClassHCA, c.name, "verbs", "rdma_read", k.Now())
		c.reg.sp.AttrInt(rs, "size", int64(op.Size))
	}
	p.AdvanceBusy(c.reg.costs.PostWR)

	srcCtx := src.ctx
	if c.reg.inj == nil {
		// Fast path: the request packet and the data response are the two
		// stages of one pooled flight (see pool.go).
		fl := c.reg.getReadFlight()
		fl.c, fl.dst, fl.src, fl.srcCtx = c, dst, src, srcCtx
		fl.localAddr, fl.remoteAddr, fl.size = op.LocalAddr, op.RemoteAddr, op.Size
		fl.onComplete, fl.rs = op.OnComplete, rs
		c.reg.f.TransferActionCtx(c.ep, srcCtx.ep, c.reg.costs.ReadReqLen, fl, rs)
		return nil
	}
	if rs != 0 {
		orig := op.OnError
		op.OnError = func(at sim.Time) {
			c.reg.sp.AttrStr(rs, "error", "retry_exhausted")
			c.reg.sp.EndAt(rs, at)
			if orig != nil {
				orig(at)
			}
		}
	}
	c.readAttempt(op, dst, src, srcCtx, 1, rs)
	return nil
}

// readAttempt performs one try of a (possibly retransmitted) RDMA read.
func (c *Ctx) readAttempt(op ReadOp, dst, src *MR, srcCtx *Ctx, attempt int, rs span.ID) {
	k := c.reg.f.Kernel()
	inj := c.reg.inj
	if inj.CQError() {
		c.reg.mErrorCQEs.Inc()
		if inj.Tracing() {
			inj.Note(k.Now(), span.ClassHCA, c.name, "cq-error", fmt.Sprintf("read size=%d attempt=%d", op.Size, attempt))
		}
		c.retryOrFail("read", op.Size, attempt, k.Now(),
			func() { c.readAttempt(op, dst, src, srcCtx, attempt+1, rs) },
			op.OnError)
		return
	}
	reqTx, _, _, reqFate := c.reg.f.TransferFatedCtx(c.ep, srcCtx.ep, c.reg.costs.ReadReqLen, func() {
		var payload []byte
		if d := src.space.ReadAt(op.RemoteAddr, op.Size); d != nil {
			payload = make([]byte, op.Size)
			copy(payload, d)
		}
		respTx, _, _, respFate := c.reg.f.TransferFatedCtx(srcCtx.ep, c.ep, op.Size+c.reg.costs.RDMAHdr, func() {
			dst.space.WriteAt(op.LocalAddr, payload, op.Size)
			c.reg.sp.EndAt(rs, k.Now())
			if op.OnComplete != nil {
				op.OnComplete(k.Now())
			}
		}, rs)
		if respFate == fault.FateDrop || respFate == fault.FateCorrupt {
			c.retryOrFail("read-resp", op.Size, attempt, respTx,
				func() { c.readAttempt(op, dst, src, srcCtx, attempt+1, rs) },
				op.OnError)
		}
	}, rs)
	if reqFate == fault.FateDrop || reqFate == fault.FateCorrupt {
		c.retryOrFail("read-req", op.Size, attempt, reqTx,
			func() { c.readAttempt(op, dst, src, srcCtx, attempt+1, rs) },
			op.OnError)
	}
}

// Packet is a two-sided control message (RTS/RTR/FIN, rendezvous handshakes,
// eager data...). Payload stays an opaque Go value; Size is what travels on
// the wire.
type Packet struct {
	From    *Ctx
	Kind    string
	Size    int
	Payload interface{}
	Data    []byte // optional eager payload bytes

	// Span is the causal parent for the packet's fabric flight (0 = none).
	// Control packets don't get a verbs-layer span of their own — the
	// injection + wire spans attach directly to this parent.
	Span span.ID
}

// PostSend transmits a control packet to dst's inbox. The receiving process
// is not involved until it drains its inbox (PollInbox); arrival only
// signals dst.InboxCond. Under fault injection lost packets are
// retransmitted like any other work request, so the control plane tolerates
// the same faults as the data plane.
func (c *Ctx) PostSend(p *sim.Proc, dst *Ctx, pkt *Packet) {
	pkt.From = c
	p.AdvanceBusy(c.reg.costs.PostWR)
	if c.reg.inj == nil {
		fl := c.reg.getSendFlight()
		fl.dst, fl.pkt = dst, pkt
		c.reg.f.TransferActionCtx(c.ep, dst.ep, pkt.Size, fl, pkt.Span)
		return
	}
	c.sendAttempt(dst, pkt, 1)
}

// sendAttempt performs one try of a (possibly retransmitted) control send.
func (c *Ctx) sendAttempt(dst *Ctx, pkt *Packet, attempt int) {
	k := c.reg.f.Kernel()
	inj := c.reg.inj
	if inj.CQError() {
		c.reg.mErrorCQEs.Inc()
		if inj.Tracing() {
			inj.Note(k.Now(), span.ClassHCA, c.name, "cq-error", fmt.Sprintf("send %s attempt=%d", pkt.Kind, attempt))
		}
		c.retryOrFail("send", pkt.Size, attempt, k.Now(),
			func() { c.sendAttempt(dst, pkt, attempt+1) }, nil)
		return
	}
	txDone, _, _, fate := c.reg.f.TransferFatedCtx(c.ep, dst.ep, pkt.Size, func() { dst.deliver(pkt) }, pkt.Span)
	if fate == fault.FateDrop || fate == fault.FateCorrupt {
		c.retryOrFail("send", pkt.Size, attempt, txDone,
			func() { c.sendAttempt(dst, pkt, attempt+1) }, nil)
	}
}

// deliver appends to the inbox in handler context.
func (c *Ctx) deliver(pkt *Packet) {
	c.inbox = append(c.inbox, pkt)
	c.InboxCond.Broadcast()
}

// PollInbox drains and returns all packets that have arrived. The returned
// slice is valid until the caller's next PollInbox on this context: the two
// inbox buffers alternate (drain one while arrivals fill the other), so
// steady-state polling reuses storage instead of allocating per batch.
func (c *Ctx) PollInbox() []*Packet {
	if len(c.inbox) == 0 {
		return nil
	}
	pkts := c.inbox
	c.inbox = c.inboxAlt[:0]
	c.inboxAlt = pkts
	return pkts
}

// InboxLen reports queued packets without draining.
func (c *Ctx) InboxLen() int { return len(c.inbox) }

// AwaitInbox blocks p until at least one packet is queued.
func (c *Ctx) AwaitInbox(p *sim.Proc) {
	for len(c.inbox) == 0 {
		c.InboxCond.Wait(p)
	}
}
