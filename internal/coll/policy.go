package coll

import (
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
)

// PolicyOps routes each collective call through a policy engine: the engine
// picks a datapath per (op-class, size, call number) and the call runs on
// the matching backend — the host MPI library for HostDirect, a per-path
// OffloadOps otherwise. Completion latency is fed back to the engine so
// measuring policies can learn.
//
// One engine is shared by every rank of an environment (see policy.Engine);
// PolicyOps itself is per-rank, and its per-site call counters advance
// identically on all ranks because collectives are called collectively.
type PolicyOps struct {
	name string
	r    *mpi.Rank
	h    *core.Host
	eng  *policy.Engine

	// fleet is the cluster's capability merge (device.Merge over nodes),
	// attached to every group request: collective decisions must be legal
	// on — and identical for — every participant, so they are made
	// against the weakest common capability set. Full-capability on
	// homogeneous legacy clusters, where it changes nothing.
	fleet device.Profile

	host  *HostOps
	off   map[datapath.Kind]*OffloadOps
	calls map[opSite]int
}

// opSite identifies one collective call site for the policy's call counter
// (the same identity the offload backends key their group caches on, minus
// the buffer addresses — sizes and slots are what policies decide by).
type opSite struct {
	kind string
	slot int
	size int
}

// NewPolicyOps builds the policy-routed backend for one rank.
func NewPolicyOps(name string, r *mpi.Rank, h *core.Host, eng *policy.Engine) *PolicyOps {
	return &PolicyOps{
		name:  name,
		r:     r,
		h:     h,
		eng:   eng,
		fleet: h.FleetProfile(),
		host:  NewHostOps(name, r),
		off:   make(map[datapath.Kind]*OffloadOps),
		calls: make(map[opSite]int),
	}
}

// Name implements Ops.
func (o *PolicyOps) Name() string { return o.name }

// backend returns (lazily creating) the fixed-path offload backend for a
// proxy-executable kind. Each gets its own group-request cache, so one site
// probed on two paths records two groups and replays both through the DPU
// group cache.
func (o *PolicyOps) backend(k datapath.Kind) *OffloadOps {
	b := o.off[k]
	if b == nil {
		b = NewOffloadOpsVia(o.name, o.r, o.h, k)
		o.off[k] = b
	}
	return b
}

// route advances the site's call counter and asks the engine for a path.
func (o *PolicyOps) route(kind string, slot, size int) (policy.Request, policy.Decision) {
	s := opSite{kind: kind, slot: slot, size: size}
	n := o.calls[s]
	o.calls[s] = n + 1
	q := policy.Request{Class: policy.ClassGroup, Size: size, Call: n, Caps: &o.fleet}
	return q, o.eng.Decide(q)
}

// policyReq wraps the chosen backend's request with enough context to feed
// the measured completion latency back to the engine exactly once.
type policyReq struct {
	inner    Request
	be       Ops
	q        policy.Request
	path     datapath.Kind
	t0       sim.Time
	root     span.ID // host-direct collective root (0 = untraced/offloaded)
	observed bool
}

// Done implements Request.
func (q *policyReq) Done() bool { return q.inner.Done() }

// collName maps a route kind to the span name the offload backends use, so
// "coll"-layer roots read identically whichever path executed the call.
func collName(kind string) string {
	switch kind {
	case "a2a":
		return "ialltoall"
	case "bcast":
		return "ibcast"
	case "ag":
		return "iallgather"
	}
	return kind
}

// hostRootSpan opens the collective root span of a host-direct decision.
// The offload backends open their own roots; without this, host-direct
// iterations would leave only per-transfer mpi spans and drop out of any
// RootsNamed("coll", ...) attribution.
func (o *PolicyOps) hostRootSpan(kind string, size int) span.ID {
	s := rootSpan(o.r, collName(kind), size)
	o.r.World().Cl.Spans.AttrStr(s, "path", "hostdirect")
	return s
}

func (o *PolicyOps) start(kind string, slot, size int, run func(Ops) Request) Request {
	q, d := o.route(kind, slot, size)
	var be Ops
	var root span.ID
	if d.Path == datapath.KindHostDirect {
		be = o.host
		// Parent the host library's per-transfer spans under the
		// collective root until completion (progress during Wait can
		// still post transfers for some algorithms).
		root = o.hostRootSpan(kind, size)
		o.r.SetSpanParent(root)
	} else {
		be = o.backend(d.Path)
	}
	return &policyReq{inner: run(be), be: be, q: q, path: d.Path, t0: o.h.Proc().Now(), root: root}
}

// observe feeds the issue-to-completion latency back to the policy (once).
func (o *PolicyOps) observe(r *policyReq) {
	if r.observed {
		return
	}
	r.observed = true
	if r.root != 0 {
		o.r.World().Cl.Spans.End(r.root)
		o.r.SetSpanParent(0)
	}
	o.eng.Observe(r.q, r.path, o.h.Proc().Now()-r.t0)
}

// Ialltoall implements Ops.
func (o *PolicyOps) Ialltoall(slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	return o.start("a2a", slot, per, func(be Ops) Request {
		return be.Ialltoall(slot, sendAddr, recvAddr, per)
	})
}

// Ibcast implements Ops.
func (o *PolicyOps) Ibcast(slot int, addr mem.Addr, size, root int) Request {
	return o.start("bcast", slot, size, func(be Ops) Request {
		return be.Ibcast(slot, addr, size, root)
	})
}

// Iallgather implements Ops.
func (o *PolicyOps) Iallgather(slot int, sendAddr, recvAddr mem.Addr, per int) Request {
	return o.start("ag", slot, per, func(be Ops) Request {
		return be.Iallgather(slot, sendAddr, recvAddr, per)
	})
}

// Wait implements Ops.
func (o *PolicyOps) Wait(q Request) {
	r := q.(*policyReq)
	r.be.Wait(r.inner)
	o.observe(r)
}

// Test implements Ops.
func (o *PolicyOps) Test(q Request) bool {
	r := q.(*policyReq)
	done := r.be.Test(r.inner)
	if done {
		o.observe(r)
	}
	return done
}

// ---------------------------------------------------------------------------
// Policy-routed point-to-point.

// PolicyP2P routes each Isend/Irecv through the policy engine. Node-local
// transfers always stay on host MPI (shared memory beats any proxy round
// trip — the same fallback OffloadP2P hard-codes); for inter-node transfers
// the engine decides from (class, size), which sender and receiver evaluate
// identically, so the two endpoints never disagree about whether a transfer
// runs on the host library or the proxies.
type PolicyP2P struct {
	name string
	r    *mpi.Rank
	h    *core.Host
	eng  *policy.Engine
	wait waitScratch
}

// NewPolicyP2P builds the policy-routed point-to-point backend for a rank.
func NewPolicyP2P(name string, r *mpi.Rank, h *core.Host, eng *policy.Engine) *PolicyP2P {
	return &PolicyP2P{name: name, r: r, h: h, eng: eng}
}

// Name implements P2P.
func (o *PolicyP2P) Name() string { return o.name }

// decide asks the engine for the path of one inter-node transfer. The
// decision is keyed on the *sender's* node profile — a quantity both
// endpoints can compute (the receiver derives it from the source rank) —
// so sender and receiver resolve capability fallbacks identically and
// never disagree about host-vs-proxy.
func (o *PolicyP2P) decide(size, sender int) datapath.Kind {
	caps := o.h.ProfileOfRank(sender)
	return o.eng.Decide(policy.Request{Class: policy.ClassP2P, Size: size, Caps: &caps}).Path
}

// Isend implements P2P.
func (o *PolicyP2P) Isend(addr mem.Addr, size, dst, tag int) Request {
	if o.r.World().SameNode(o.r.RankID(), dst) {
		return o.r.Isend(addr, size, dst, tag)
	}
	if k := o.decide(size, o.r.RankID()); k != datapath.KindHostDirect {
		return o.h.SendOffloadVia(k, addr, size, dst, tag)
	}
	return o.r.Isend(addr, size, dst, tag)
}

// Irecv implements P2P. The receive side is path-agnostic on the proxy
// (RecvOffload registers the destination either way); it only needs to
// agree with the sender about host-vs-proxy, which the shared sender-keyed
// decision rule guarantees.
func (o *PolicyP2P) Irecv(addr mem.Addr, size, src, tag int) Request {
	if o.r.World().SameNode(o.r.RankID(), src) {
		return o.r.Irecv(addr, size, src, tag)
	}
	if k := o.decide(size, src); k != datapath.KindHostDirect {
		return o.h.RecvOffload(addr, size, src, tag)
	}
	return o.r.Irecv(addr, size, src, tag)
}

// WaitAll implements P2P.
func (o *PolicyP2P) WaitAll(qs []Request) { o.wait.waitAll(o.r, o.h, qs) }
