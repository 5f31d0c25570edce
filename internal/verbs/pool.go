package verbs

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
)

// Flight records. Every RDMA write, RDMA read and control send travels as a
// pooled flight: a sim.Action carrying the state its delivery needs, taken
// from one of the Registry's pool.Lists and put back by its own Fire, the
// way the kernel's event arena recycles event slots. A list that runs dry
// grows by a slab, so even the first burst of a collective — a 256-rank
// alltoall puts 65 280 writes in flight at once — allocates once per slab,
// not once per op; once warm, posting and completing an op touches no
// allocator at all (enforced by the AllocsPerRun tests in pool_test.go). The
// completion handlers are sim.Actions too, so a caller's pooled record is
// its own handler and posting builds no closure.
//
// There is one path, faults or not. Like the HCA's RC transport, which
// retransmits below the verbs API, a flight carries its own retries: an
// error CQE or a lost message (fault.Fate.Lost) reschedules the same record
// after the backoff, with its payload snapshot intact, and an exhausted
// budget fires its failure from the same record. Without an injector no
// fault is ever drawn and the retry stages never run.
//
// Handlers and processes run one at a time — processes are coroutines, and
// each switch between them and the Run caller orders everything before it —
// so the lists need no locking.

// Flight stages: what a flight's next Fire does.
const (
	stageLand  = iota // the data (a read's response) lands; a send arrives
	stageServe        // a read's request reaches the remote HCA
	stageRetry        // the backoff after a lost attempt is over: try again
	stageFail         // the retry budget is spent: report the failure
)

// tries is the retransmission state every flight embeds. Its fields are
// narrow because the lists hold one record per op in flight — tens of
// thousands at 256 ranks — and a write flight must stay within 96 bytes, a
// read within 112 and a send within 24: those sizes set a slab's bytes.
type tries struct {
	n     int32 // the attempt in progress, from 1
	stage uint8 // what the next Fire does
}

func (t *tries) state() *tries { return t }

// opTries is the retry state of an RDMA write or read: its tries, plus the
// op span a completion or failure closes. Its OnError handler, which few ops
// have, waits in Registry.onErr, keeping the record within its size.
type opTries struct {
	sp span.ID // 0 = none
	tries
}

func (o *opTries) opSpan() span.ID { return o.sp }

// flight is a pooled work request in the retry machinery.
type flight interface {
	sim.Action
	state() *tries
	opSpan() span.ID
	try()     // makes attempt state().n
	recycle() // returns the record to its free list
}

// retryOrFail settles a lost attempt of fl, whose loss shows at `from` (kind
// and size name it in the fault notes): the next attempt follows after the
// exponential backoff, or, with the budget spent, the failure is counted and
// noted and fl's fail stage fires at `from` — unless there is neither an op
// span to close nor an OnError to fire, in which case fl is recycled at once.
func (c *Ctx) retryOrFail(fl flight, kind string, size int, from sim.Time) {
	k := c.reg.f.Kernel()
	inj := c.reg.inj
	rc := inj.Retry()
	t := fl.state()
	n := int(t.n)
	if n >= rc.MaxAttempts {
		inj.Stats.Exhausted++
		if inj.Tracing() {
			inj.Note(k.Now(), span.ClassHCA, c.name, "retry-exhausted",
				fmt.Sprintf("%s size=%d after %d attempts", kind, size, n))
		}
		if fl.opSpan() == 0 && c.reg.onErr[fl] == nil {
			fl.recycle()
			return
		}
		t.stage = stageFail
		k.AtAction(from-k.Now(), fl)
		return
	}
	inj.Stats.Retries++
	c.reg.mRetries.Inc()
	c.reg.mBackoffNS.Add(int64(rc.Delay(n)))
	if inj.Tracing() {
		inj.Note(k.Now(), span.ClassHCA, c.name, "retry",
			fmt.Sprintf("%s size=%d attempt=%d backoff=%s", kind, size, n, rc.Delay(n)))
	}
	t.stage = stageRetry
	k.AtAction(from-k.Now()+rc.Delay(n), fl)
}

// cqError draws whether attempt n of a work request completes with an error
// CQE before reaching the wire, counting and noting one that does. A send's
// note names its packet kind, an RDMA op's its size.
func (c *Ctx) cqError(kind string, size int, n int32, pkt *Packet) bool {
	inj := c.reg.inj
	if !inj.CQError() {
		return false
	}
	c.reg.mErrorCQEs.Inc()
	if inj.Tracing() {
		detail := fmt.Sprintf("%s size=%d attempt=%d", kind, size, n)
		if pkt != nil {
			detail = fmt.Sprintf("send %s attempt=%d", pkt.Kind, n)
		}
		inj.Note(c.reg.f.Kernel().Now(), span.ClassHCA, c.name, "cq-error", detail)
	}
	return true
}

// fireRetry runs fl's retry-machinery stages (stage >= stageRetry): after
// the backoff, the next attempt; with the budget spent, the op span gets
// error=retry_exhausted and ends, the record is recycled, and OnError fires.
func (c *Ctx) fireRetry(fl flight, at sim.Time) {
	t := fl.state()
	if t.stage == stageRetry {
		t.n++
		fl.try()
		return
	}
	onErr, sp := c.reg.onErr[fl], fl.opSpan()
	fl.recycle()
	c.reg.sp.AttrStr(sp, "error", "retry_exhausted")
	c.reg.sp.EndAt(sp, at)
	if onErr != nil {
		onErr.Fire(at)
	}
}

// watch files an op's OnError handler, if it has one, under its flight;
// recycling the flight drops it.
func (r *Registry) watch(fl flight, onErr sim.Action) {
	if onErr != nil {
		r.onErr[fl] = onErr
	}
}

// writeFlight is one in-flight RDMA write. buf is a grow-only payload
// scratch reused across flights: the payload is snapshot into it at post
// time, and every attempt sends that snapshot. An empty buf means the source
// is size-only, so the landing copies nothing.
type writeFlight struct {
	opTries
	c      *Ctx
	dst    *MR
	addr   mem.Addr
	size   int
	buf    []byte
	notify *Packet
	onRem  sim.Action
}

func (fl *writeFlight) try() {
	c := fl.c
	if c.cqError("write", fl.size, fl.n, nil) {
		c.retryOrFail(fl, "write", fl.size, c.reg.f.Kernel().Now())
		return
	}
	fl.stage = stageLand
	txDone, _, fate := c.reg.f.TransferActionCtx(c.ep, fl.dst.ctx.ep, fl.size+c.reg.costs.RDMAHdr, fl, fl.sp)
	if fate.Lost() {
		c.retryOrFail(fl, "write", fl.size, txDone)
	}
}

// Fire lands the payload at the data's arrival time, closes the op span,
// recycles the flight, then notifies. The flight returns to the pool before
// the callbacks run so a completion handler that posts another write can
// reuse the record — fields are copied out first, like event slots.
func (fl *writeFlight) Fire(at sim.Time) {
	c := fl.c
	if fl.stage >= stageRetry {
		c.fireRetry(fl, at)
		return
	}
	dstCtx, notify, onRem := fl.dst.ctx, fl.notify, fl.onRem
	fl.dst.space.WriteAt(fl.addr, fl.buf, fl.size)
	c.reg.sp.EndAt(fl.sp, at)
	fl.recycle()
	if notify != nil {
		dstCtx.deliver(notify)
	}
	if onRem != nil {
		onRem.Fire(at)
	}
}

func (fl *writeFlight) recycle() {
	r := fl.c.reg
	delete(r.onErr, fl)
	*fl = writeFlight{buf: fl.buf[:0]}
	r.wf.Put(fl)
}

// readFlight is one in-flight RDMA read, pooled like writeFlight. Its serve
// stage is the request arriving at the remote HCA, which snapshots the
// source into buf and streams the response back on the same flight; its
// land stage is the response landing locally. The loss of either leg
// retries the whole round trip.
type readFlight struct {
	opTries
	c          *Ctx
	dst, src   *MR
	localAddr  mem.Addr
	remoteAddr mem.Addr
	size       int
	buf        []byte
	onComplete sim.Action
}

func (fl *readFlight) try() {
	c := fl.c
	if c.cqError("read", fl.size, fl.n, nil) {
		c.retryOrFail(fl, "read", fl.size, c.reg.f.Kernel().Now())
		return
	}
	fl.stage = stageServe
	reqTx, _, fate := c.reg.f.TransferActionCtx(c.ep, fl.src.ctx.ep, c.reg.costs.ReadReqLen, fl, fl.sp)
	if fate.Lost() {
		c.retryOrFail(fl, "read-req", fl.size, reqTx)
	}
}

func (fl *readFlight) Fire(at sim.Time) {
	c := fl.c
	if fl.stage >= stageRetry {
		c.fireRetry(fl, at)
		return
	}
	if fl.stage == stageServe {
		if d := fl.src.space.ReadAt(fl.remoteAddr, fl.size); d != nil {
			fl.buf = append(fl.buf[:0], d...)
		}
		fl.stage = stageLand
		respTx, _, fate := c.reg.f.TransferActionCtx(fl.src.ctx.ep, c.ep, fl.size+c.reg.costs.RDMAHdr, fl, fl.sp)
		if fate.Lost() {
			c.retryOrFail(fl, "read-resp", fl.size, respTx)
		}
		return
	}
	onC := fl.onComplete
	fl.dst.space.WriteAt(fl.localAddr, fl.buf, fl.size)
	c.reg.sp.EndAt(fl.sp, at)
	fl.recycle()
	if onC != nil {
		onC.Fire(at)
	}
}

func (fl *readFlight) recycle() {
	r := fl.c.reg
	delete(r.onErr, fl)
	*fl = readFlight{buf: fl.buf[:0]}
	r.rf.Put(fl)
}

// sendFlight is one in-flight control send: the pooled deliverable that
// hands a Packet to its destination inbox at arrival time. Its sender is
// pkt.From. A send has no op span and no OnError: one that exhausts its
// retries is simply never delivered.
type sendFlight struct {
	tries
	dst *Ctx
	pkt *Packet
}

func (fl *sendFlight) opSpan() span.ID { return 0 }

func (fl *sendFlight) try() {
	c, pkt := fl.pkt.From, fl.pkt
	if c.cqError("send", pkt.Size, fl.n, pkt) {
		c.retryOrFail(fl, "send", pkt.Size, c.reg.f.Kernel().Now())
		return
	}
	fl.stage = stageLand
	txDone, _, fate := c.reg.f.TransferActionCtx(c.ep, fl.dst.ep, pkt.Size, fl, pkt.Span)
	if fate.Lost() {
		c.retryOrFail(fl, "send", pkt.Size, txDone)
	}
}

func (fl *sendFlight) Fire(at sim.Time) {
	if fl.stage >= stageRetry {
		fl.pkt.From.fireRetry(fl, at)
		return
	}
	dst, pkt := fl.dst, fl.pkt
	fl.recycle()
	dst.deliver(pkt)
}

func (fl *sendFlight) recycle() {
	r := fl.dst.reg
	*fl = sendFlight{}
	r.sf.Put(fl)
}

// GetPacket returns a zeroed control packet from the registry's pool.
// The per-message callers — mpi's eager, rendezvous and FIN packets, and
// core's RTS, RTR, FIN and delivery notifications — take packets here, and
// their receivers pair it with PutPacket once the payload is read. A flight
// re-sends only a packet that was not delivered, so every packet reaches at
// most one inbox, at most once, and its receiver is its last holder. Other
// callers allocate their own Packets, which their receivers must not put.
func (r *Registry) GetPacket() *Packet { return r.pk.Get() }

// PutPacket recycles a consumed packet. The caller must be the packet's
// final owner: after Put the packet's fields are zeroed and the next
// GetPacket may hand it to an unrelated sender. The packet must have come
// from GetPacket: the pool links its free packets through the slab records
// they were carved from.
func (r *Registry) PutPacket(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	r.pk.Put(p)
}
