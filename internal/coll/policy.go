package coll

import (
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
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
	observed bool
}

// Done implements Request.
func (q *policyReq) Done() bool { return q.inner.Done() }

// start routes one call and issues it on the chosen backend: the host
// library for a host-direct decision (HostOps opens the call's root span
// there, as the offload backends do on theirs).
func (o *PolicyOps) start(kind string, slot, size int, run func(Ops) Request) Request {
	q, d := o.route(kind, slot, size)
	var be Ops = o.host
	if d.Path != datapath.KindHostDirect {
		be = o.backend(d.Path)
	}
	return &policyReq{inner: run(be), be: be, q: q, path: d.Path, t0: o.h.Proc().Now()}
}

// observe feeds the issue-to-completion latency back to the policy (once).
func (o *PolicyOps) observe(r *policyReq) {
	if r.observed {
		return
	}
	r.observed = true
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
