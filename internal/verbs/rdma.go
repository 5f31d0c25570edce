package verbs

import (
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

	// OnRemoteComplete fires (handler context) when the data has landed in
	// the destination memory.
	OnRemoteComplete sim.Action
	// Notify, if non-nil, is delivered into the destination context's inbox
	// with the data (RDMA write with immediate).
	Notify *Packet
	// OnError fires (handler context) if fault injection exhausts the
	// operation's retry budget; the op will never complete. Nil leaves the
	// failure counted in fault.Stats and traced only.
	OnError sim.Action

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

	fl := c.reg.wf.Get()
	fl.c, fl.dst, fl.addr, fl.size = c, dst, op.RemoteAddr, op.Size
	if d := src.space.ReadAt(op.LocalAddr, op.Size); d != nil {
		fl.buf = append(fl.buf[:0], d...)
	}
	fl.notify, fl.onRem = op.Notify, op.OnRemoteComplete
	fl.opTries = opTries{sp: ws, tries: tries{n: 1}}
	c.reg.watch(fl, op.OnError)
	fl.try()
	return nil
}

// ReadOp describes one RDMA-read work request.
type ReadOp struct {
	LocalKey   Key      // lkey covering the destination range (local)
	LocalAddr  mem.Addr // where fetched data lands
	RemoteKey  Key      // rkey covering the remote source
	RemoteAddr mem.Addr
	Size       int

	// OnComplete fires when the fetched data has landed locally.
	OnComplete sim.Action
	// OnError fires if fault injection exhausts the retry budget.
	OnError sim.Action

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

	fl := c.reg.rf.Get()
	fl.c, fl.dst, fl.src = c, dst, src
	fl.localAddr, fl.remoteAddr, fl.size = op.LocalAddr, op.RemoteAddr, op.Size
	fl.onComplete = op.OnComplete
	fl.opTries = opTries{sp: rs, tries: tries{n: 1}}
	c.reg.watch(fl, op.OnError)
	fl.try()
	return nil
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
	fl := c.reg.sf.Get()
	fl.dst, fl.pkt, fl.tries = dst, pkt, tries{n: 1}
	fl.try()
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
