// Package policy decides, per operation, which datapath an offloaded
// communication should take. The paper fixes the path at job launch; the
// quantitative-offloading literature (Wahlgren et al.; Karamati et al.)
// finds that offloading everything is a loss and the win lies in judicious
// per-operation selection. Five policies cover that spectrum:
//
//   - Fixed: always the same path — reproduces the baseline presets
//     (Proposed / BluesMPI / IntelMPI) bit-exactly;
//   - Adaptive: a static size/op-class rule (one-sided traffic goes
//     cross-GVMI; groups and point-to-point stay on the host at or below
//     the eager cutoff — or intra-node for p2p — and offload above it);
//   - Aware: the same rule with the cutoff scaled per device from the
//     request's capabilities (see aware.go);
//   - Measuring: learns per-(op-class, size-bucket) costs online — it
//     probes each candidate path round-robin during the first calls of a
//     site, then freezes on the cheapest observed path;
//   - Feedback: Measuring that never goes stale — windowed cost estimates
//     plus drift triggers (frozen-path cost exceeding its freeze-time mean
//     by a hysteresis factor, or proxy queue-depth gauges crossing a
//     threshold) unfreeze the choice and re-probe, so a mid-run load shift
//     re-routes traffic instead of degrading forever (see feedback.go).
//
// Decisions must be consistent across the ranks of one collective (a rank
// building a DPU group while its peer runs host MPI deadlocks). Fixed,
// Adaptive and Aware decide from (class, size, locality, caps) alone, which
// every participant sees identically. Measuring probes by call number — also
// rank-independent — and freezes exactly once per (class, size-bucket):
// whichever rank decides first locks the table entry for everyone (the
// engine is shared per environment), so ranks can never diverge. Feedback
// additionally memoizes every decision by call number, so ranks whose
// Decide calls interleave with cost observations still agree. For
// point-to-point and one-sided traffic both fall back to the Adaptive
// rule: probing would need sender and receiver to flip paths in lockstep,
// which only class/size-deterministic rules guarantee.
package policy

import (
	"fmt"
	"math/bits"

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

// String implements fmt.Stringer.
func (c OpClass) String() string {
	switch c {
	case ClassP2P:
		return "p2p"
	case ClassGroup:
		return "group"
	case ClassOneSided:
		return "onesided"
	default:
		return fmt.Sprintf("unknown(%d)", int(c))
	}
}

// Request describes one operation about to be issued.
type Request struct {
	Class OpClass
	// Size is the per-transfer payload in bytes (per-peer block size for
	// collectives).
	Size int
	// Intra marks a same-node peer (point-to-point only).
	Intra bool
	// Call is the 0-based invocation count of this operation site (call
	// site x size), maintained by the caller. Measuring probes by it.
	Call int
	// Caps is the device profile the decision must be legal for: the
	// sender's node profile for point-to-point, the fleet capability merge
	// for collectives (all ranks must agree — see device.Merge). Nil keeps
	// the legacy capability-blind rules, bit-exactly. Only the Aware
	// policy and the engine's legality pass consult it; Fixed, Adaptive,
	// and Measuring ignore it by construction.
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
	// ran on path k. Fixed and Adaptive ignore it.
	Observe(q Request, k datapath.Kind, cost sim.Time)
}

// SmallMsgCutoff is the Adaptive policy's point-to-point threshold: at or
// below it the host eager path wins on latency (matches the MPI library's
// default eager threshold); above it the proxy path wins on overlap and
// zero-copy.
const SmallMsgCutoff = 16 << 10

// ---------------------------------------------------------------------------
// Fixed

// Fixed always picks the same path — the pre-refactor behaviour of a
// construction-time mechanism.
type Fixed struct{ Path datapath.Kind }

// Name implements Policy.
func (f Fixed) Name() string { return "fixed-" + f.Path.String() }

// Decide implements Policy.
func (f Fixed) Decide(Request) Decision { return Decision{Path: f.Path, Reason: "fixed"} }

// Observe implements Policy.
func (Fixed) Observe(Request, datapath.Kind, sim.Time) {}

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
// cutoff as a parameter: Adaptive (and the point-to-point fallback of
// Measuring and Feedback) passes SmallMsgCutoff, Aware the device-scaled
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
// Measuring

// groupCandidates are the proxy-executable paths Measuring probes for
// group operations (HostDirect groups cannot run on a proxy).
var groupCandidates = []datapath.Kind{datapath.KindCrossGVMI, datapath.KindStaged}

// costKey indexes the learned-cost table. Sizes are bucketed by log2
// (sizeBucket) so a site whose payload jitters by a few bytes shares one
// learned entry instead of re-probing forever on an unboundedly growing
// table.
type costKey struct {
	class  OpClass
	bucket int
}

// sizeBucket maps a payload size to its log2 bucket, matching the metrics
// histograms' convention: bucket 0 holds non-positive sizes, bucket i
// (i >= 1) holds sizes in [2^(i-1), 2^i).
func sizeBucket(size int) int {
	if size <= 0 {
		return 0
	}
	return bits.Len(uint(size))
}

// meanLess reports aSum/aN < bSum/bN exactly, comparing the cross-products
// aSum*bN and bSum*aN in 128-bit integer space. Observed costs are integer
// sim.Time sums, and the float64 division the comparison used to go
// through ties at large magnitudes (2^53 and 2^53+1 round to the same
// float), which silently flipped argmin outcomes.
func meanLess(aSum sim.Time, aN int64, bSum sim.Time, bN int64) bool {
	ah, al := bits.Mul64(uint64(aSum), uint64(bN))
	bh, bl := bits.Mul64(uint64(bSum), uint64(aN))
	return ah < bh || (ah == bh && al < bl)
}

// pathStats accumulates observed costs of one path at one key.
type pathStats struct {
	n   int64
	sum sim.Time
}

// costEntry is the table row for one (class, size-bucket).
type costEntry struct {
	obs    map[datapath.Kind]*pathStats
	frozen bool
	choice datapath.Kind
}

// Measuring learns per-(class, size) costs online: group calls 0..C-1 of a
// site probe candidate paths round-robin; the first call past the probe
// window freezes the cheapest observed mean and every later call replays
// the frozen choice (through the group caches, so steady state pays no
// learning overhead). Costs come from span-measured issue-to-completion
// times the caller feeds to Observe.
type Measuring struct {
	table map[costKey]*costEntry
}

// NewMeasuring returns an empty-table measuring policy.
func NewMeasuring() *Measuring { return &Measuring{table: make(map[costKey]*costEntry)} }

// Name implements Policy.
func (*Measuring) Name() string { return "measure" }

// Decide implements Policy.
func (m *Measuring) Decide(q Request) Decision {
	if q.Class != ClassGroup {
		// Probing p2p would need both endpoints to flip in lockstep; stay
		// on the class/size-deterministic rule (see the package comment).
		return sizeRule(q, SmallMsgCutoff)
	}
	e := m.entry(q)
	if e.frozen {
		return Decision{Path: e.choice, Reason: "learned"}
	}
	if q.Call < len(groupCandidates) {
		return Decision{Path: groupCandidates[q.Call], Reason: "probe"}
	}
	if !e.observed() {
		// Both probe calls' costs were lost (a chaos drop can kill the
		// completion that would have fed Observe). Freezing now would lock
		// argmin on an empty table — silently cross-GVMI with reason
		// "learned" — so keep probing round-robin until a cost lands.
		return Decision{Path: groupCandidates[q.Call%len(groupCandidates)], Reason: "probe-retry"}
	}
	e.frozen = true
	e.choice = m.argmin(e)
	return Decision{Path: e.choice, Reason: "learned"}
}

// Observe implements Policy.
func (m *Measuring) Observe(q Request, k datapath.Kind, cost sim.Time) {
	if q.Class != ClassGroup {
		return
	}
	e := m.entry(q)
	if e.frozen {
		return
	}
	st := e.obs[k]
	if st == nil {
		st = &pathStats{}
		e.obs[k] = st
	}
	st.n++
	st.sum += cost
}

func (m *Measuring) entry(q Request) *costEntry {
	key := costKey{q.Class, sizeBucket(q.Size)}
	e := m.table[key]
	if e == nil {
		e = &costEntry{obs: make(map[datapath.Kind]*pathStats)}
		m.table[key] = e
	}
	return e
}

// observed reports whether any candidate has at least one recorded cost.
func (e *costEntry) observed() bool {
	for _, st := range e.obs {
		if st != nil && st.n > 0 {
			return true
		}
	}
	return false
}

// argmin picks the candidate with the lowest observed mean cost, compared
// exactly via integer cross-products (meanLess); an unobserved candidate
// never wins, and a full tie keeps the first candidate (cross-GVMI).
func (m *Measuring) argmin(e *costEntry) datapath.Kind {
	best := groupCandidates[0]
	var bestSum sim.Time
	var bestN int64
	found := false
	for _, k := range groupCandidates {
		st := e.obs[k]
		if st == nil || st.n == 0 {
			continue
		}
		if !found || meanLess(st.sum, st.n, bestSum, bestN) {
			best, bestSum, bestN, found = k, st.sum, st.n, true
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Engine

// Engine wraps a policy with decision accounting: every decision is
// counted per path and per reason in the metrics registry (layer "policy")
// so runs record which path each operation took and why. One engine is
// shared by all ranks of an environment — that sharing is what makes
// Measuring's freeze globally consistent.
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
// Each tenant job gets its own engine — Measuring then learns per job, which
// is the correct scope (jobs see different proxy load). "" reproduces
// NewEngine exactly.
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

// Name returns the wrapped policy's name.
func (e *Engine) Name() string { return e.p.Name() }

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
