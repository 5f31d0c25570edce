// Package coll gives applications one backend-agnostic interface to
// nonblocking collectives, with three interchangeable implementations:
//
//   - Host: the MPI library's own nonblocking collectives, progressed only
//     inside MPI calls (the "IntelMPI" baseline);
//   - Offload: collectives built on the core framework's Group primitives —
//     scatter-destination Ialltoall and (segmented) ring Ibcast executed by
//     DPU proxies. With the framework configured for cross-GVMI this is the
//     paper's "Proposed" scheme; configured for staging without the group
//     cache it models "BluesMPI";
//   - Policy: each call routed by a policy engine to one of the other two.
//
// Bind picks one for a rank, together with its point-to-point backend.
// The slot argument of each collective identifies the call site: offloaded
// backends cache one group request per (slot, buffers, size), so repeated
// calls from the same site replay through the DPU group cache exactly as the
// paper's Section VII-D describes.
package coll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/span"
)

// Request is a pending nonblocking collective.
type Request interface {
	// Done reports completion without progressing the schedule.
	Done() bool
}

// Ops is the per-rank collective interface applications program against.
type Ops interface {
	// Name identifies the backend ("proposed", "bluesmpi", "intelmpi"...).
	Name() string
	// Ialltoall starts a personalized all-to-all of per bytes per peer.
	Ialltoall(slot int, sendAddr, recvAddr mem.Addr, per int) Request
	// Ibcast starts a broadcast of [addr, addr+size) from root.
	Ibcast(slot int, addr mem.Addr, size, root int) Request
	// Iallgather gathers per bytes from every rank's sendAddr into each
	// rank's recvAddr (blocks ordered by source rank).
	Iallgather(slot int, sendAddr, recvAddr mem.Addr, per int) Request
	// Wait blocks until the request completes.
	Wait(Request)
	// Test progresses (if the backend needs it) and polls completion.
	Test(Request) bool
}

// ---------------------------------------------------------------------------
// Host backend.

// HostOps runs collectives through the MPI library itself.
type HostOps struct {
	name string
	r    *mpi.Rank
}

// NewHostOps wraps a rank with the host (IntelMPI-like) backend.
func NewHostOps(name string, r *mpi.Rank) *HostOps {
	return &HostOps{name: name, r: r}
}

// Name implements Ops.
func (o *HostOps) Name() string { return o.name }

// hostReq is a host collective traced under its root span. Untraced,
// HostOps hands out the bare *mpi.CollRequest and allocates nothing.
type hostReq struct {
	*mpi.CollRequest
	root span.ID
}

// start opens the root span of one host collective, parents the library's
// per-transfer spans under it until the collective completes (progress
// during Wait can still post transfers for some algorithms), and issues it.
func (o *HostOps) start(name string, size int, issue func() *mpi.CollRequest) Request {
	root := rootSpan(o.r, name, size)
	if root == 0 {
		return issue()
	}
	o.r.World().Cl.Spans.AttrStr(root, "path", "hostdirect")
	o.r.SetSpanParent(root)
	return &hostReq{issue(), root}
}

// finish completes q by done (the library's wait or test) and, once it has
// completed, ends its root span.
func (o *HostOps) finish(q Request, done func(*mpi.CollRequest) bool) bool {
	h, traced := q.(*hostReq)
	if !traced {
		return done(q.(*mpi.CollRequest))
	}
	ok := done(h.CollRequest)
	if ok {
		o.r.World().Cl.Spans.End(h.root)
		o.r.SetSpanParent(0)
	}
	return ok
}

// Ialltoall implements Ops.
func (o *HostOps) Ialltoall(_ int, sendAddr, recvAddr mem.Addr, per int) Request {
	return o.start("ialltoall", per, func() *mpi.CollRequest { return o.r.Ialltoall(sendAddr, recvAddr, per) })
}

// Ibcast implements Ops.
func (o *HostOps) Ibcast(_ int, addr mem.Addr, size, root int) Request {
	return o.start("ibcast", size, func() *mpi.CollRequest { return o.r.Ibcast(addr, size, root) })
}

// Iallgather implements Ops.
func (o *HostOps) Iallgather(_ int, sendAddr, recvAddr mem.Addr, per int) Request {
	return o.start("iallgather", per, func() *mpi.CollRequest { return o.r.Iallgather(sendAddr, recvAddr, per) })
}

// Wait implements Ops.
func (o *HostOps) Wait(q Request) {
	o.finish(q, func(c *mpi.CollRequest) bool { o.r.WaitColl(c); return true })
}

// Test implements Ops.
func (o *HostOps) Test(q Request) bool { return o.finish(q, o.r.TestColl) }

// ---------------------------------------------------------------------------
// Offload backend.

// OffloadOps runs collectives on the DPU offload framework's Group
// primitives.
type OffloadOps struct {
	name string
	r    *mpi.Rank
	h    *core.Host
	path datapath.Kind // datapath the recorded groups execute on

	// SegmentSize chunks large Ibcast payloads through the ring so that
	// forwarding pipelines (0 = no segmentation).
	SegmentSize int
	// MaxSegments bounds the pipeline depth: the effective segment is
	// max(SegmentSize, size/MaxSegments), which keeps the recorded group
	// bounded even for multi-hundred-MB panels.
	MaxSegments int

	cache map[collKey]*core.GroupRequest
}

type collKey struct {
	kind string
	path datapath.Kind
	slot int
	a, b mem.Addr
	size int
	root int
}

// NewOffloadOps wraps a rank and its framework host handle; groups run on
// the framework's default datapath.
func NewOffloadOps(name string, r *mpi.Rank, h *core.Host) *OffloadOps {
	return NewOffloadOpsVia(name, r, h, h.DefaultPath())
}

// NewOffloadOpsVia is NewOffloadOps with an explicit datapath for every
// group the backend records (the policy layer builds one per chosen path).
func NewOffloadOpsVia(name string, r *mpi.Rank, h *core.Host, kind datapath.Kind) *OffloadOps {
	return &OffloadOps{
		name:        name,
		r:           r,
		h:           h,
		path:        kind,
		SegmentSize: 256 << 10,
		MaxSegments: 16,
		cache:       make(map[collKey]*core.GroupRequest),
	}
}

// Name implements Ops.
func (o *OffloadOps) Name() string { return o.name }

// offloadReq adapts a GroupRequest to Request.
type offloadReq struct {
	h    *core.Host
	g    *core.GroupRequest
	span span.ID // collective root span (0 = untraced)
}

// Done implements Request.
func (q *offloadReq) Done() bool { return q.g.Done() }

// rootSpan opens rank r's root span of one collective call (0 when tracing
// is off). On the offload backends it covers the local prologue, the group
// call, and — through the proxy's execution span — everything the DPU does
// on the collective's behalf.
func rootSpan(r *mpi.Rank, name string, size int) span.ID {
	sp := r.World().Cl.Spans
	if !sp.Enabled() {
		return 0
	}
	s := sp.Start(0, span.ClassRank, r.Entity(), "coll", name)
	sp.AttrInt(s, "size", int64(size))
	return s
}

// Ialltoall implements Ops: IalltoallOn over the world communicator.
func (o *OffloadOps) Ialltoall(slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	return o.IalltoallOn(o.r.Comm(), slot, sendAddr, recvAddr, per)
}

// IalltoallOn is the scatter-destination algorithm of Section VIII-B scoped
// to a communicator: block i of the send buffer goes to comm-rank i,
// recorded as one group request per rank (receives from rank-i, sends to
// rank+i) and replayed through the group cache on repeat calls from the
// same call site. Different communicators may share a slot only if their
// member sets are disjoint (e.g. the row communicators of a process grid).
func (o *OffloadOps) IalltoallOn(c *mpi.Comm, slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	np, me := c.Size(), c.RankID()
	root := rootSpan(o.r, "ialltoall", per)
	key := collKey{kind: "a2a", path: o.path, slot: slot, a: sendAddr, b: recvAddr, size: per}
	g, ok := o.cache[key]
	if !ok {
		tag := tagFor(slot)
		g = o.h.GroupStartVia(o.path)
		for i := 1; i < np; i++ {
			src := (me - i + np) % np
			g.Recv(recvAddr+mem.Addr(src*per), per, c.World(src), tag)
		}
		for i := 1; i < np; i++ {
			dst := (me + i) % np
			g.Send(sendAddr+mem.Addr(dst*per), per, c.World(dst), tag)
		}
		g.End()
		o.cache[key] = g
	}
	// Own block stays on the host: one local copy.
	sp := o.r.Space()
	if d := sp.ReadAt(sendAddr+mem.Addr(me*per), per); d != nil {
		sp.WriteAt(recvAddr+mem.Addr(me*per), d, per)
	}
	o.h.Proc().AdvanceBusy(o.r.World().Cl.CopyCost(per))
	o.h.GroupCallCtx(g, root)
	return &offloadReq{h: o.h, g: g, span: root}
}

// Ibcast implements Ops: the ring broadcast of Listing 5 — receive from the
// left neighbour, local barrier, forward to the right — segmented so large
// panels pipeline around the ring, all progressed by the proxies.
func (o *OffloadOps) Ibcast(slot int, addr mem.Addr, size, root int) Request {
	np, me := o.r.Size(), o.r.RankID()
	rs := rootSpan(o.r, "ibcast", size)
	key := collKey{kind: "bcast", path: o.path, slot: slot, a: addr, size: size, root: root}
	g, ok := o.cache[key]
	if !ok {
		tag := tagFor(slot)
		seg := o.SegmentSize
		if o.MaxSegments > 0 {
			if floor := (size + o.MaxSegments - 1) / o.MaxSegments; floor > seg {
				seg = floor
			}
		}
		if seg <= 0 || seg > size {
			seg = size
		}
		left := (me - 1 + np) % np
		right := (me + 1) % np
		g = o.h.GroupStartVia(o.path)
		if np > 1 {
			for off := 0; off < size; off += seg {
				n := min(seg, size-off)
				a := addr + mem.Addr(off)
				if me == root {
					g.Send(a, n, right, tag)
				} else {
					g.Recv(a, n, left, tag)
					g.LocalBarrier()
					if right != root {
						g.Send(a, n, right, tag)
					}
				}
			}
		}
		g.End()
		o.cache[key] = g
	}
	o.h.GroupCallCtx(g, rs)
	return &offloadReq{h: o.h, g: g, span: rs}
}

// Iallgather implements Ops: the ring allgather recorded as one group —
// each forwarding step is ordered behind the previous step's receive with a
// local barrier, and the whole chain runs on the proxies (the pattern of
// reference [9] that BluesMPI offloads by staging; here it is direct).
func (o *OffloadOps) Iallgather(slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	np, me := o.r.Size(), o.r.RankID()
	root := rootSpan(o.r, "iallgather", per)
	key := collKey{kind: "ag", path: o.path, slot: slot, a: sendAddr, b: recvAddr, size: per}
	g, ok := o.cache[key]
	if !ok {
		tag := tagFor(slot)
		right := (me + 1) % np
		left := (me - 1 + np) % np
		g = o.h.GroupStartVia(o.path)
		for step := 0; step < np-1; step++ {
			blkSend := (me - step + np) % np
			blkRecv := (me - step - 1 + np) % np
			g.Send(recvAddr+mem.Addr(blkSend*per), per, right, tag)
			g.Recv(recvAddr+mem.Addr(blkRecv*per), per, left, tag)
			g.LocalBarrier()
		}
		g.End()
		o.cache[key] = g
	}
	// Own block placed locally before the chain starts.
	sp := o.r.Space()
	if d := sp.ReadAt(sendAddr, per); d != nil {
		sp.WriteAt(recvAddr+mem.Addr(me*per), d, per)
	}
	o.h.Proc().AdvanceBusy(o.r.World().Cl.CopyCost(per))
	o.h.GroupCallCtx(g, root)
	return &offloadReq{h: o.h, g: g, span: root}
}

// Wait implements Ops.
func (o *OffloadOps) Wait(q Request) {
	r := q.(*offloadReq)
	o.h.GroupWait(r.g)
	o.r.World().Cl.Spans.End(r.span)
}

// Test implements Ops.
func (o *OffloadOps) Test(q Request) bool {
	r := q.(*offloadReq)
	done := o.h.GroupTest(r.g)
	if done {
		o.r.World().Cl.Spans.End(r.span)
	}
	return done
}

// tagFor separates call-site slots in the offload library's tag space.
func tagFor(slot int) int { return 1 << 16 << slot }

// ---------------------------------------------------------------------------
// Basic-primitive (point-to-point offload) helpers.

// P2P abstracts nonblocking point-to-point transfer for workloads that are
// written against MPI_Isend/Irecv (the 3D stencil): either plain MPI or the
// framework's Basic primitives.
type P2P interface {
	Name() string
	Isend(addr mem.Addr, size, dst, tag int) Request
	Irecv(addr mem.Addr, size, src, tag int) Request
	WaitAll([]Request)
}

// Bind returns rank r's collective and point-to-point backends: routed
// through eng when there is one (it needs h), offloaded on h's framework
// default path when there is a host handle but no engine — a fixed-path
// system needs no engine — and the MPI library's own otherwise.
func Bind(name string, r *mpi.Rank, h *core.Host, eng *policy.Engine) (Ops, P2P) {
	p2p := &pointToPoint{name: name, r: r, h: h, eng: eng}
	switch {
	case eng != nil:
		return NewPolicyOps(name, r, h, eng), p2p
	case h != nil:
		return NewOffloadOps(name, r, h), p2p
	}
	return NewHostOps(name, r), p2p
}

// pointToPoint is the one P2P backend. With a framework handle, inter-node
// transfers use its Basic primitives (Send_Offload / Recv_Offload) and
// progress on the DPU; node-local transfers always stay on host MPI (shared
// memory beats any proxy round trip), which is why the paper's stencil
// overlap plateaus near 78% rather than 100% (Section VIII-A).
type pointToPoint struct {
	name string
	r    *mpi.Rank
	h    *core.Host
	eng  *policy.Engine
	wait waitScratch
}

// Name implements P2P.
func (o *pointToPoint) Name() string { return o.name }

// path picks the datapath of one transfer of size bytes to or from peer,
// sent by rank sender: host-direct without a handle or to a node-local
// peer, the framework's default path without an engine, and otherwise the
// engine's decision. That decision is keyed on the *sender's* node profile
// — a quantity both endpoints can compute — so sender and receiver resolve
// capability fallbacks identically and never disagree about host-vs-proxy.
func (o *pointToPoint) path(size, peer, sender int) datapath.Kind {
	switch {
	case o.h == nil || o.r.World().SameNode(o.r.RankID(), peer):
		return datapath.KindHostDirect
	case o.eng == nil:
		return o.h.DefaultPath()
	}
	caps := o.h.ProfileOfRank(sender)
	return o.eng.Decide(policy.Request{Class: policy.ClassP2P, Size: size, Caps: &caps}).Path
}

// Isend implements P2P.
func (o *pointToPoint) Isend(addr mem.Addr, size, dst, tag int) Request {
	if k := o.path(size, dst, o.r.RankID()); k != datapath.KindHostDirect {
		return o.h.SendOffloadVia(k, addr, size, dst, tag)
	}
	return o.r.Isend(addr, size, dst, tag)
}

// Irecv implements P2P. The receive side is path-agnostic on the proxy
// (RecvOffload registers the destination either way); it only needs to
// agree with the sender about host-vs-proxy.
func (o *pointToPoint) Irecv(addr mem.Addr, size, src, tag int) Request {
	if o.path(size, src, src) != datapath.KindHostDirect {
		return o.h.RecvOffload(addr, size, src, tag)
	}
	return o.r.Irecv(addr, size, src, tag)
}

// WaitAll implements P2P.
func (o *pointToPoint) WaitAll(qs []Request) { o.wait.waitAll(o.r, o.h, qs) }

// waitScratch is the P2P backend's pair of WaitAll sorting buffers, reused
// across calls so a wait allocates nothing.
type waitScratch struct {
	mpi []*mpi.Request
	off []*core.OffloadRequest
}

// waitAll completes a mix of MPI and offload requests, whichever classes
// are present (h may be nil when only MPI requests can occur).
func (s *waitScratch) waitAll(r *mpi.Rank, h *core.Host, qs []Request) {
	for _, q := range qs {
		switch v := q.(type) {
		case *mpi.Request:
			s.mpi = append(s.mpi, v)
		case *core.OffloadRequest:
			s.off = append(s.off, v)
		default:
			panic(fmt.Sprintf("coll: unknown request type %T", q))
		}
	}
	// Offload requests complete on the DPU regardless; drain them first so
	// FIN processing interleaves with MPI progress.
	if len(s.off) > 0 {
		h.WaitAll(s.off...)
	}
	if len(s.mpi) > 0 {
		r.WaitAll(s.mpi...)
	}
	clear(s.mpi)
	clear(s.off)
	s.mpi, s.off = s.mpi[:0], s.off[:0]
}
