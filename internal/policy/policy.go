// Package policy decides, per operation, which datapath an offloaded
// communication should take. The paper fixes the path at job launch; the
// quantitative-offloading literature (Wahlgren et al.; Karamati et al.)
// finds that offloading everything is a loss and the win lies in judicious
// per-operation selection. The baseline presets (Proposed / BluesMPI /
// IntelMPI) need no policy: they run every operation on their own path.
// Two algorithms cover that spectrum:
//
//   - the size rule: a static size/op-class rule (one-sided traffic goes
//     cross-GVMI; groups and point-to-point stay on the host at or below a
//     cutoff — or intra-node for p2p — and offload above it). Adaptive
//     uses the eager cutoff, Aware scales it per device from the request's
//     capabilities (see aware.go);
//   - the learner (Feedback, see feedback.go): per-(op-class, size-bucket)
//     costs measured online — it probes each candidate path in turn during
//     the first calls of a site, then freezes on the cheapest observed
//     path. With re-probing on, windowed cost estimates plus drift
//     triggers unfreeze the choice and re-probe, so a mid-run load shift
//     re-routes traffic instead of degrading forever.
//
// Decisions must be consistent across the ranks of one collective (a rank
// building a DPU group while its peer runs host MPI deadlocks). The size
// rule decides from (class, size, locality, caps) alone, which every
// participant sees identically. The learner probes by call number —
// also rank-independent — and memoizes every decision by call number:
// whichever rank decides a call first locks the answer for everyone (the
// engine is shared per environment), so ranks whose Decide calls
// interleave with cost observations still agree. For point-to-point and
// one-sided traffic it falls back to the Adaptive rule: probing would need
// sender and receiver to flip paths in lockstep, which only
// class/size-deterministic rules guarantee.
package policy

import (
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// OpClass partitions operations for decision and cost tables.
type OpClass int

// Operation classes.
const (
	// ClassP2P is a basic point-to-point transfer (send/recv pair).
	ClassP2P OpClass = iota
	// ClassGroup is a group-offload pattern (collectives).
	ClassGroup
	// ClassOneSided is a window put/get.
	ClassOneSided
)

// Request describes one operation about to be issued.
type Request struct {
	Class OpClass
	// Size is the per-transfer payload in bytes (per-peer block size for
	// collectives).
	Size int
	// Intra marks a same-node peer (point-to-point only).
	Intra bool
	// Call is the 0-based invocation count of this operation site (call
	// site x size), maintained by the caller. The learner probes by it.
	Call int
	// Caps is the device profile the decision must be legal for: the
	// sender's node profile for point-to-point, the fleet capability merge
	// for collectives (all ranks must agree — see device.Merge). Nil keeps
	// the legacy capability-blind rules, bit-exactly. Only the Aware
	// policy, the learner's candidate list and the engine's legality pass
	// consult it; Adaptive ignores it by construction.
	Caps *device.Profile
}

// Decision is a chosen path plus the rule that chose it (recorded in
// metrics so runs can be audited).
type Decision struct {
	Path   datapath.Kind
	Reason string
}

// Policy chooses datapaths. Implementations must be deterministic
// functions of the request and of previously observed costs.
type Policy interface {
	Name() string
	Decide(Request) Decision
	// Observe feeds back the measured cost of a completed operation that
	// ran on path k. The size rules ignore it.
	Observe(q Request, k datapath.Kind, cost sim.Time)
}

// SmallMsgCutoff is the Adaptive policy's point-to-point threshold: at or
// below it the host eager path wins on latency (matches the MPI library's
// default eager threshold); above it the proxy path wins on overlap and
// zero-copy.
const SmallMsgCutoff = 16 << 10

// ---------------------------------------------------------------------------
// Adaptive

// Adaptive applies a static size/op-class rule (no feedback).
type Adaptive struct{}

// Name implements Policy.
func (Adaptive) Name() string { return "adaptive" }

// Decide implements Policy.
func (Adaptive) Decide(q Request) Decision { return sizeRule(q, SmallMsgCutoff) }

// Observe implements Policy.
func (Adaptive) Observe(Request, datapath.Kind, sim.Time) {}

// sizeRule is the static size/op-class rule with its host-vs-offload
// cutoff as a parameter: Adaptive (and the learner's point-to-point
// fallback) passes SmallMsgCutoff, Aware the device-scaled
// cutoff. It nominates cross-GVMI for offloaded traffic; the engine's
// legality pass degrades that to the DSA engine or staged copies on parts
// without cross-function registration, so the rule stays mechanism-free.
func sizeRule(q Request, cutoff int) Decision {
	switch q.Class {
	case ClassGroup:
		if q.Size <= cutoff {
			// Latency-bound collectives: the host algorithm beats any proxy
			// hop (Wahlgren et al.'s "offloading everything is a loss").
			return Decision{Path: datapath.KindHostDirect, Reason: "small-msg"}
		}
		// DPU-progressed groups are the framework's raison d'être, and the
		// direct path dominates staging at every size (mechanism ablation).
		return Decision{Path: datapath.KindCrossGVMI, Reason: "group-direct"}
	case ClassOneSided:
		return Decision{Path: datapath.KindCrossGVMI, Reason: "one-sided"}
	default:
		if q.Intra {
			// Shared-memory copy beats a DPU round trip.
			return Decision{Path: datapath.KindHostDirect, Reason: "intra-node"}
		}
		if q.Size <= cutoff {
			// Latency-bound: host eager send wins; the proxy hop costs two
			// extra control messages.
			return Decision{Path: datapath.KindHostDirect, Reason: "small-msg"}
		}
		return Decision{Path: datapath.KindCrossGVMI, Reason: "large-msg"}
	}
}

// ---------------------------------------------------------------------------
// Engine

// Engine wraps a policy with decision accounting: every decision is
// counted per path and per reason in the metrics registry (layer "policy")
// so runs record which path each operation took and why. One engine is
// shared by all ranks of an environment — that sharing is what makes the
// learner's decisions globally consistent.
type Engine struct {
	p      Policy
	m      *metrics.Registry
	tenant string

	mByPath   map[datapath.Kind]*metrics.Counter
	mByReason map[string]*metrics.Counter
}

// NewEngine builds an engine recording into m (nil m records nothing).
func NewEngine(p Policy, m *metrics.Registry) *Engine {
	return NewEngineFor(p, m, "")
}

// RegistryConsumer is implemented by policies that read live load signals
// back out of the run's metrics registry (the Feedback policy consults
// proxy queue-depth gauges as a drift trigger). The engine attaches its
// registry to such policies at construction.
type RegistryConsumer interface {
	AttachRegistry(*metrics.Registry)
}

// NewEngineFor is NewEngine with a tenant label: every decision counter is
// recorded under it, so multi-tenant runs attribute path choices per job.
// Each tenant job gets its own engine — the learner then learns per job,
// which is the correct scope (jobs see different proxy load). ""
// reproduces NewEngine exactly.
func NewEngineFor(p Policy, m *metrics.Registry, tenant string) *Engine {
	if rc, ok := p.(RegistryConsumer); ok {
		rc.AttachRegistry(m)
	}
	return &Engine{
		p:         p,
		m:         m,
		tenant:    tenant,
		mByPath:   make(map[datapath.Kind]*metrics.Counter),
		mByReason: make(map[string]*metrics.Counter),
	}
}

// Decide chooses a path and records the decision. When the request carries
// device capabilities, the chosen path is degraded to one the device can
// actually run (datapath.Resolve) before it is recorded — the counters
// then audit what executed, and a capability-blind policy stays legal on a
// reduced part without knowing it. On full-capability profiles (and on
// nil Caps) the pass is the identity, bit-exact with the legacy engine.
func (e *Engine) Decide(q Request) Decision {
	d := e.p.Decide(q)
	if q.Caps != nil {
		d.Path = datapath.Resolve(d.Path, datapath.Caps{CrossGVMI: q.Caps.CrossGVMI, DSA: q.Caps.HasDSA})
	}
	if e.m.Enabled() {
		c := e.mByPath[d.Path]
		if c == nil {
			c = e.m.CounterT("policy", e.p.Name(), "decide_"+d.Path.String(), e.tenant)
			e.mByPath[d.Path] = c
		}
		c.Inc()
		rc := e.mByReason[d.Reason]
		if rc == nil {
			rc = e.m.CounterT("policy", e.p.Name(), "reason_"+d.Reason, e.tenant)
			e.mByReason[d.Reason] = rc
		}
		rc.Inc()
	}
	return d
}

// Observe forwards a measured operation cost to the policy.
func (e *Engine) Observe(q Request, k datapath.Kind, cost sim.Time) {
	e.p.Observe(q, k, cost)
}
