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
//
// It is StartWrite, p paying the post's cost, and Issue.
func (c *Ctx) PostWrite(p *sim.Proc, op WriteOp) error {
	w, err := c.StartWrite(op)
	if err != nil {
		return err
	}
	p.AdvanceBusy(w.Cost())
	w.Issue()
	return nil
}

// Post is a work request whose posting cost — the CPU time of handing it
// to the HCA — is being paid. StartWrite, StartRead and StartSend validate
// the request and take its flight; once the poster has paid Cost, Issue
// makes the first attempt, an RDMA write's payload snapshot included. The
// Post* methods are the three steps in a row on a process; a poster that is
// not a process schedules Issue at the end of the cost instead.
type Post struct {
	c    *Ctx
	fl   flight
	src  *mem.Space // an RDMA write's source, read when the post issues
	addr mem.Addr
}

// Cost returns the CPU time posting the request takes.
func (p Post) Cost() sim.Time { return p.c.reg.costs.PostWR }

// Issue hands the request to the HCA: the payload of an RDMA write is
// snapshot now, and every attempt sends that snapshot.
func (p Post) Issue() {
	if p.src != nil {
		fl := p.fl.(*writeFlight)
		if d := p.src.ReadAt(p.addr, fl.size); d != nil {
			fl.buf = append(fl.buf[:0], d...)
		}
	}
	p.fl.try()
}

// StartWrite validates an RDMA write and opens its op span, from the
// posting instant; see Post.
func (c *Ctx) StartWrite(op WriteOp) (Post, error) {
	src, err := c.reg.lookupKey(op.LocalKey, op.LocalAddr, op.Size)
	if err != nil {
		return Post{}, err
	}
	dst, err := c.reg.lookupKey(op.RemoteKey, op.RemoteAddr, op.Size)
	if err != nil {
		return Post{}, err
	}
	var ws span.ID
	if c.reg.sp.Enabled() {
		// Op span: from posting (before the WR cost) to remote completion.
		ws = c.reg.sp.StartAt(op.Span, span.ClassHCA, c.name, "verbs", "rdma_write", c.reg.f.Kernel().Now())
		c.reg.sp.AttrInt(ws, "size", int64(op.Size))
	}
	fl := c.reg.wf.Get()
	fl.c, fl.dst, fl.addr, fl.size = c, dst, op.RemoteAddr, op.Size
	fl.notify, fl.onRem = op.Notify, op.OnRemoteComplete
	fl.opTries = opTries{sp: ws, tries: tries{n: 1}}
	c.reg.watch(fl, op.OnError)
	return Post{c: c, fl: fl, src: src.space, addr: op.LocalAddr}, nil
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
// It is StartRead, p paying the post's cost, and Issue.
func (c *Ctx) PostRead(p *sim.Proc, op ReadOp) error {
	r, err := c.StartRead(op)
	if err != nil {
		return err
	}
	p.AdvanceBusy(r.Cost())
	r.Issue()
	return nil
}

// StartRead validates an RDMA read and opens its op span, from the posting
// instant; see Post.
func (c *Ctx) StartRead(op ReadOp) (Post, error) {
	dst, err := c.reg.lookupKey(op.LocalKey, op.LocalAddr, op.Size)
	if err != nil {
		return Post{}, err
	}
	src, err := c.reg.lookupKey(op.RemoteKey, op.RemoteAddr, op.Size)
	if err != nil {
		return Post{}, err
	}
	var rs span.ID
	if c.reg.sp.Enabled() {
		rs = c.reg.sp.StartAt(op.Span, span.ClassHCA, c.name, "verbs", "rdma_read", c.reg.f.Kernel().Now())
		c.reg.sp.AttrInt(rs, "size", int64(op.Size))
	}
	fl := c.reg.rf.Get()
	fl.c, fl.dst, fl.src = c, dst, src
	fl.localAddr, fl.remoteAddr, fl.size = op.LocalAddr, op.RemoteAddr, op.Size
	fl.onComplete = op.OnComplete
	fl.opTries = opTries{sp: rs, tries: tries{n: 1}}
	c.reg.watch(fl, op.OnError)
	return Post{c: c, fl: fl}, nil
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
// the same faults as the data plane. It is StartSend, p paying the post's
// cost, and Issue.
func (c *Ctx) PostSend(p *sim.Proc, dst *Ctx, pkt *Packet) {
	s := c.StartSend(dst, pkt)
	p.AdvanceBusy(s.Cost())
	s.Issue()
}

// StartSend takes the flight of a control send; see Post.
func (c *Ctx) StartSend(dst *Ctx, pkt *Packet) Post {
	pkt.From = c
	fl := c.reg.sf.Get()
	fl.dst, fl.pkt, fl.tries = dst, pkt, tries{n: 1}
	return Post{c: c, fl: fl}
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
