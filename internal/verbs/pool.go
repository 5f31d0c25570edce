package verbs

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
)

// Hot-path pooling. Every RDMA operation posted on the no-injector fast
// path used to allocate a delivery closure (plus a payload copy for backed
// buffers); every control packet was a fresh Packet. At scale — a 1024-rank
// alltoall posts about a million writes per iteration — those per-op
// allocations dominate the allocator profile. The flights below are pooled
// per Registry and recycle themselves from their own Fire, exactly the way
// the kernel's event arena recycles event slots: once warm, posting and
// completing an op touches no allocator at all (enforced by the
// AllocsPerRun tests in pool_test.go).
//
// Handlers and processes run one at a time — processes are coroutines, and
// each switch between them and the Run caller orders everything before it —
// so the free lists need no locking.

// writeFlight is one in-flight RDMA write: the state the delivery needs,
// carried as a sim.Action instead of a closure. buf is a grow-only payload
// scratch reused across flights.
type writeFlight struct {
	c      *Ctx
	dst    *MR
	dstCtx *Ctx
	addr   mem.Addr
	size   int
	buf    []byte
	backed bool
	notify *Packet
	onRem  func(at sim.Time)
	ws     span.ID
}

// Fire runs at the data's arrival time: it lands the payload, closes the op
// span, recycles the flight, then notifies. The flight returns to the pool
// before the callbacks run so a completion handler that posts another write
// can reuse the record — fields are copied out first, like event slots.
func (fl *writeFlight) Fire(at sim.Time) {
	c, dst, dstCtx := fl.c, fl.dst, fl.dstCtx
	addr, size := fl.addr, fl.size
	notify, onRem, ws := fl.notify, fl.onRem, fl.ws
	var payload []byte
	if fl.backed {
		payload = fl.buf
	}
	dst.space.WriteAt(addr, payload, size)
	c.reg.sp.EndAt(ws, at)
	c.reg.putWriteFlight(fl)
	if notify != nil {
		dstCtx.deliver(notify)
	}
	if onRem != nil {
		onRem(at)
	}
}

func (r *Registry) getWriteFlight() *writeFlight {
	if n := len(r.wfFree); n > 0 {
		fl := r.wfFree[n-1]
		r.wfFree = r.wfFree[:n-1]
		return fl
	}
	return &writeFlight{}
}

func (r *Registry) putWriteFlight(fl *writeFlight) {
	buf := fl.buf
	*fl = writeFlight{buf: buf[:0]}
	r.wfFree = append(r.wfFree, fl)
}

// readFlight is one in-flight RDMA read, pooled like writeFlight. It fires
// twice: stage 0 is the request arriving at the remote HCA (which reads the
// source and streams the response back, re-scheduling the same flight);
// stage 1 is the response landing locally.
type readFlight struct {
	c          *Ctx
	dst, src   *MR
	srcCtx     *Ctx
	localAddr  mem.Addr
	remoteAddr mem.Addr
	size       int
	stage      int
	buf        []byte
	backed     bool
	onComplete func(at sim.Time)
	rs         span.ID
}

func (fl *readFlight) Fire(at sim.Time) {
	c := fl.c
	if fl.stage == 0 {
		// Remote HCA responds autonomously with the data.
		if d := fl.src.space.ReadAt(fl.remoteAddr, fl.size); d != nil {
			fl.buf = append(fl.buf[:0], d...)
			fl.backed = true
		}
		fl.stage = 1
		c.reg.f.TransferActionCtx(fl.srcCtx.ep, c.ep, fl.size+c.reg.costs.RDMAHdr, fl, fl.rs)
		return
	}
	dst, addr, size := fl.dst, fl.localAddr, fl.size
	onC, rs := fl.onComplete, fl.rs
	var payload []byte
	if fl.backed {
		payload = fl.buf
	}
	dst.space.WriteAt(addr, payload, size)
	c.reg.sp.EndAt(rs, at)
	c.reg.putReadFlight(fl)
	if onC != nil {
		onC(at)
	}
}

func (r *Registry) getReadFlight() *readFlight {
	if n := len(r.rfFree); n > 0 {
		fl := r.rfFree[n-1]
		r.rfFree = r.rfFree[:n-1]
		return fl
	}
	return &readFlight{}
}

func (r *Registry) putReadFlight(fl *readFlight) {
	buf := fl.buf
	*fl = readFlight{buf: buf[:0]}
	r.rfFree = append(r.rfFree, fl)
}

// sendFlight is one in-flight control send: the pooled deliverable that
// hands a Packet to its destination inbox at arrival time.
type sendFlight struct {
	dst *Ctx
	pkt *Packet
}

func (fl *sendFlight) Fire(at sim.Time) {
	dst, pkt := fl.dst, fl.pkt
	fl.dst, fl.pkt = nil, nil
	dst.reg.sfFree = append(dst.reg.sfFree, fl)
	dst.deliver(pkt)
}

func (r *Registry) getSendFlight() *sendFlight {
	if n := len(r.sfFree); n > 0 {
		fl := r.sfFree[n-1]
		r.sfFree = r.sfFree[:n-1]
		return fl
	}
	return &sendFlight{}
}

// GetPacket returns a zeroed control packet from the registry's free list.
// The per-message callers — mpi's eager, rendezvous and FIN packets, and
// core's RTS, RTR, FIN and delivery notifications — take packets here only
// when no fault injector is attached, and their receivers pair it with
// PutPacket once the payload is read. Other callers allocate their own
// Packets; the pool is an optimization, never a requirement.
func (r *Registry) GetPacket() *Packet {
	if n := len(r.pkFree); n > 0 {
		p := r.pkFree[n-1]
		r.pkFree = r.pkFree[:n-1]
		return p
	}
	return &Packet{}
}

// PutPacket recycles a consumed packet. The caller must be the packet's
// final owner: after Put the packet's fields are zeroed and the next
// GetPacket may hand it to an unrelated sender. Putting a packet that did
// not come from GetPacket is allowed (it joins the pool).
func (r *Registry) PutPacket(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	r.pkFree = append(r.pkFree, p)
}
