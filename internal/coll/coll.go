// Package coll gives applications one backend-agnostic interface to
// nonblocking collectives and point-to-point transfers. Bind gives each rank
// one backend, and each call decides once where it runs:
//
//   - on the host: the MPI library's own nonblocking collectives, progressed
//     only inside MPI calls (the "IntelMPI" baseline);
//   - on the proxies: collectives built on the core framework's Group
//     primitives — scatter-destination Ialltoall and (segmented) ring Ibcast
//     executed by DPU proxies. With the framework configured for cross-GVMI
//     this is the paper's "Proposed" scheme; configured for staging without
//     the group cache it models "BluesMPI".
//
// Without a framework host handle every call runs on the host; without a
// policy engine every call runs on the framework's default datapath; with
// both, the engine picks the path of each call.
//
// The slot argument of each collective identifies the call site: a call on
// the proxies records one group request per (path, slot, buffers, size), so
// repeated calls from the same site replay through the DPU group cache
// exactly as the paper's Section VII-D describes.
package coll

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
)

// Request is a pending nonblocking collective or transfer; pass it to the
// Wait or WaitAll of the backend that issued it. The handle is dead once
// that returns.
type Request any

// Ops is the per-rank collective interface applications program against.
type Ops interface {
	// Name identifies the backend ("proposed", "bluesmpi", "intelmpi"...).
	Name() string
	// Ialltoall starts a personalized all-to-all of per bytes per peer.
	Ialltoall(slot int, sendAddr, recvAddr mem.Addr, per int) Request
	// IalltoallOn is Ialltoall within communicator c (block i goes to
	// comm-rank i).
	IalltoallOn(c *mpi.Comm, slot int, sendAddr, recvAddr mem.Addr, per int) Request
	// Ibcast starts a broadcast of [addr, addr+size) from root.
	Ibcast(slot int, addr mem.Addr, size, root int) Request
	// Iallgather gathers per bytes from every rank's sendAddr into each
	// rank's recvAddr (blocks ordered by source rank).
	Iallgather(slot int, sendAddr, recvAddr mem.Addr, per int) Request
	// Wait blocks until the request completes.
	Wait(Request)
}

// P2P abstracts nonblocking point-to-point transfer for workloads that are
// written against MPI_Isend/Irecv (the 3D stencil): either plain MPI or the
// framework's Basic primitives.
type P2P interface {
	Name() string
	Isend(addr mem.Addr, size, dst, tag int) Request
	Irecv(addr mem.Addr, size, src, tag int) Request
	WaitAll([]Request)
}

// Ring broadcasts are cut into segments of segmentSize bytes so that
// forwarding pipelines, but into no more than maxSegments, which keeps the
// recorded group bounded even for multi-hundred-MB panels.
const (
	segmentSize = 256 << 10
	maxSegments = 16
)

// Backend is a rank's one collective and point-to-point backend.
//
// One engine is shared by every rank of an environment (see policy.Engine);
// the backend is per rank, and its per-site call counters advance
// identically on all ranks because collectives are called collectively.
type Backend struct {
	name string
	r    *mpi.Rank
	h    *core.Host     // nil: every call runs on the host library
	eng  *policy.Engine // nil: every proxy call runs on h's default path

	// fleet is the cluster's capability merge (device.Merge over nodes),
	// attached to every collective decision: it must be legal on — and
	// identical for — every participant, so it is made against the weakest
	// common capability set.
	fleet  *device.Profile
	calls  map[opSite]int // engine decisions: calls so far per site
	groups map[collKey]*core.GroupRequest
	free   []*call // records of finished calls
	wait   waitScratch
}

// Bind returns rank r's backend as its collective and point-to-point
// interfaces: routed through eng when there are both eng and h, offloaded
// on h's framework default path when there is a host handle but no engine
// — a fixed-path system needs no engine — and the MPI library's own
// otherwise.
func Bind(name string, r *mpi.Rank, h *core.Host, eng *policy.Engine) (Ops, P2P) {
	o := &Backend{name: name, r: r, h: h}
	if h != nil {
		o.groups = make(map[collKey]*core.GroupRequest)
		if eng != nil {
			fleet := h.FleetProfile()
			o.eng, o.fleet, o.calls = eng, &fleet, make(map[opSite]int)
		}
	}
	return o, o
}

// Name implements Ops and P2P.
func (o *Backend) Name() string { return o.name }

// collKey identifies one recorded group: the call site, its buffers and the
// path it runs on.
type collKey struct {
	kind string
	path datapath.Kind
	slot int
	a, b mem.Addr
	size int
	root int
}

// opSite identifies one collective call site for the engine's call counter
// (a group's identity minus the path and buffer addresses — sizes and slots
// are what policies decide by).
type opSite struct {
	kind string
	slot int
	size int
}

// call is one collective in flight, with what Wait needs to finish it.
type call struct {
	c    *mpi.CollRequest   // on the host library
	g    *core.GroupRequest // on the proxies
	root span.ID            // root span (0 = untraced)
	q    policy.Request     // the engine's request (engine-routed calls)
	path datapath.Kind
	t0   sim.Time // issue return: the engine observes from here to Wait
}

// start decides where one call at site key runs — the host library without
// a host handle, h's default path without an engine, and otherwise the
// engine's decision against the fleet profile — sets key.path, and then
// opens the call's root span when tracing is on. The root covers the local
// prologue, the issue and — on the proxies through the proxy's execution
// span — everything done on the call's behalf; a host call's root also
// parents the library's per-transfer spans until Wait (progress during Wait
// can still post transfers for some algorithms).
func (o *Backend) start(key *collKey, name string) call {
	var x call
	switch {
	case o.h == nil:
		x.path = datapath.KindHostDirect
	case o.eng == nil:
		x.path = o.h.DefaultPath()
	default:
		s := opSite{kind: key.kind, slot: key.slot, size: key.size}
		n := o.calls[s]
		o.calls[s] = n + 1
		x.q = policy.Request{Class: policy.ClassGroup, Size: key.size, Call: n, Caps: o.fleet}
		x.path = o.eng.Decide(x.q).Path
	}
	key.path = x.path
	if sp := o.r.World().Cl.Spans; sp.Enabled() {
		x.root = sp.Start(0, span.ClassRank, o.r.Entity(), "coll", name)
		sp.AttrInt(x.root, "size", int64(key.size))
		if x.path == datapath.KindHostDirect {
			sp.AttrStr(x.root, "path", "hostdirect")
			o.r.SetSpanParent(x.root)
		}
	}
	return x
}

// group returns the group recorded for key, recording it with build on the
// site's first call on key's path.
func (o *Backend) group(key collKey, build func(g *core.GroupRequest)) *core.GroupRequest {
	g, ok := o.groups[key]
	if !ok {
		g = o.h.GroupStartVia(key.path)
		build(g)
		g.End()
		o.groups[key] = g
	}
	return g
}

// copyLocal places the rank's own block: one host copy, paid for before
// the group call.
func (o *Backend) copyLocal(from, to mem.Addr, per int) {
	sp := o.r.Space()
	if d := sp.ReadAt(from, per); d != nil {
		sp.WriteAt(to, d, per)
	}
	o.h.Proc().AdvanceBusy(o.r.World().Cl.CopyCost(per))
}

// issue calls x's group on the proxies (a host call's caller has issued it
// on the library) and hands the call out. An untraced host call without an
// engine needs nothing but the library's request; any other call's record
// comes from the backend's free list, and Wait puts it back.
func (o *Backend) issue(x call) Request {
	if x.g != nil {
		o.h.GroupCallCtx(x.g, x.root)
	} else if x.root == 0 && o.eng == nil {
		return x.c
	}
	x.t0 = o.r.Now()
	var p *call
	if n := len(o.free); n > 0 {
		p, o.free = o.free[n-1], o.free[:n-1]
	} else {
		p = new(call)
	}
	*p = x
	return p
}

// Ialltoall implements Ops: IalltoallOn over the world communicator.
func (o *Backend) Ialltoall(slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	return o.IalltoallOn(o.r.Comm(), slot, sendAddr, recvAddr, per)
}

// IalltoallOn implements Ops: a personalized all-to-all scoped to a
// communicator, block i of the send buffer going to comm-rank i. On the
// proxies it is the scatter-destination algorithm of Section VIII-B,
// recorded as one group request per rank (receives from rank-i, sends to
// rank+i) and replayed through the group cache on repeat calls from the
// same call site.
// Different communicators may share a slot only if their member sets are
// disjoint (e.g. the row communicators of a process grid).
func (o *Backend) IalltoallOn(c *mpi.Comm, slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	key := collKey{kind: "a2a", slot: slot, a: sendAddr, b: recvAddr, size: per}
	x := o.start(&key, "ialltoall")
	if x.path == datapath.KindHostDirect {
		x.c = c.Ialltoall(sendAddr, recvAddr, per)
		return o.issue(x)
	}
	np, me := c.Size(), c.RankID()
	x.g = o.group(key, func(g *core.GroupRequest) {
		tag := tagFor(slot)
		g.Reserve(2 * (np - 1))
		for i := 1; i < np; i++ {
			src := (me - i + np) % np
			g.Recv(recvAddr+mem.Addr(src*per), per, c.World(src), tag)
		}
		for i := 1; i < np; i++ {
			dst := (me + i) % np
			g.Send(sendAddr+mem.Addr(dst*per), per, c.World(dst), tag)
		}
	})
	// Own block stays on the host: one local copy.
	o.copyLocal(sendAddr+mem.Addr(me*per), recvAddr+mem.Addr(me*per), per)
	return o.issue(x)
}

// Ibcast implements Ops. On the proxies it is the ring broadcast of
// Listing 5 — receive from the left neighbour, local barrier, forward to the
// right — segmented so large panels pipeline around the ring.
func (o *Backend) Ibcast(slot int, addr mem.Addr, size, root int) Request {
	key := collKey{kind: "bcast", slot: slot, a: addr, size: size, root: root}
	x := o.start(&key, "ibcast")
	if x.path == datapath.KindHostDirect {
		x.c = o.r.Ibcast(addr, size, root)
		return o.issue(x)
	}
	np, me := o.r.Size(), o.r.RankID()
	x.g = o.group(key, func(g *core.GroupRequest) {
		if np == 1 {
			return
		}
		tag := tagFor(slot)
		seg := max(segmentSize, (size+maxSegments-1)/maxSegments)
		left, right := (me-1+np)%np, (me+1)%np
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
	})
	return o.issue(x)
}

// Iallgather implements Ops. On the proxies it is the ring allgather
// recorded as one group — each forwarding step is ordered behind the
// previous step's receive with a local barrier, and the whole chain runs on
// the proxies (the pattern of reference [9] that BluesMPI offloads by
// staging; here it is direct).
func (o *Backend) Iallgather(slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	key := collKey{kind: "ag", slot: slot, a: sendAddr, b: recvAddr, size: per}
	x := o.start(&key, "iallgather")
	if x.path == datapath.KindHostDirect {
		x.c = o.r.Iallgather(sendAddr, recvAddr, per)
		return o.issue(x)
	}
	np, me := o.r.Size(), o.r.RankID()
	x.g = o.group(key, func(g *core.GroupRequest) {
		tag := tagFor(slot)
		left, right := (me-1+np)%np, (me+1)%np
		for step := 0; step < np-1; step++ {
			blkSend := (me - step + np) % np
			blkRecv := (me - step - 1 + np) % np
			g.Send(recvAddr+mem.Addr(blkSend*per), per, right, tag)
			g.Recv(recvAddr+mem.Addr(blkRecv*per), per, left, tag)
			g.LocalBarrier()
		}
	})
	// Own block placed locally before the chain starts.
	o.copyLocal(sendAddr, recvAddr+mem.Addr(me*per), per)
	return o.issue(x)
}

// Wait implements Ops: it completes the call, ends its root span and, when
// an engine routed it, feeds the issue-to-completion latency back to the
// engine.
func (o *Backend) Wait(q Request) {
	x, ok := q.(*call)
	if !ok {
		o.r.WaitColl(q.(*mpi.CollRequest))
		return
	}
	if x.g != nil {
		o.h.GroupWait(x.g)
	} else {
		o.r.WaitColl(x.c)
	}
	if x.root != 0 {
		o.r.World().Cl.Spans.End(x.root)
		if x.g == nil {
			o.r.SetSpanParent(0)
		}
	}
	if o.eng != nil {
		o.eng.Observe(x.q, x.path, o.r.Now()-x.t0)
	}
	*x = call{}
	o.free = append(o.free, x)
}

// tagFor separates call-site slots in the offload library's tag space.
func tagFor(slot int) int { return 1 << 16 << slot }

// ---------------------------------------------------------------------------
// Point-to-point. With a framework handle, inter-node transfers use its
// Basic primitives (Send_Offload / Recv_Offload) and progress on the DPU;
// node-local transfers always stay on host MPI (shared memory beats any
// proxy round trip), which is why the paper's stencil overlap plateaus near
// 78% rather than 100% (Section VIII-A).

// p2pPath picks the datapath of one transfer of size bytes to or from peer,
// sent by rank sender: host-direct without a handle or to a node-local
// peer, the framework's default path without an engine, and otherwise the
// engine's decision. That decision is keyed on the *sender's* node profile
// — a quantity both endpoints can compute — so sender and receiver resolve
// capability fallbacks identically and never disagree about host-vs-proxy.
func (o *Backend) p2pPath(size, peer, sender int) datapath.Kind {
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
func (o *Backend) Isend(addr mem.Addr, size, dst, tag int) Request {
	if k := o.p2pPath(size, dst, o.r.RankID()); k != datapath.KindHostDirect {
		return o.h.SendOffloadVia(k, addr, size, dst, tag)
	}
	return o.r.Isend(addr, size, dst, tag)
}

// Irecv implements P2P. The receive side is path-agnostic on the proxy
// (RecvOffload registers the destination either way); it only needs to
// agree with the sender about host-vs-proxy.
func (o *Backend) Irecv(addr mem.Addr, size, src, tag int) Request {
	if o.p2pPath(size, src, src) != datapath.KindHostDirect {
		return o.h.RecvOffload(addr, size, src, tag)
	}
	return o.r.Irecv(addr, size, src, tag)
}

// WaitAll implements P2P.
func (o *Backend) WaitAll(qs []Request) { o.wait.waitAll(o.r, o.h, qs) }

// waitScratch is the P2P backend's pair of WaitAll sorting buffers, reused
// across calls so a wait allocates nothing.
type waitScratch struct {
	mpi []*mpi.Request
	off []*core.OffloadRequest
}

// waitAll completes a mix of MPI and offload requests, whichever classes
// are present (h may be nil when only MPI requests can occur). It waits for
// every offload request and then for every MPI one; the two waits do not
// interleave.
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
