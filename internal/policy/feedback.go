// The learner measures per-(op-class, size-bucket) costs online: the first
// group calls of a site probe each candidate path in turn, then the entry
// freezes on the cheapest observed mean and later calls replay it (through
// the group caches, so steady state pays no learning overhead). Costs come
// from span-measured issue-to-completion times the caller feeds to Observe.
//
// With re-probing off (the "measure" policy) the freeze is final — correct
// for a static fabric, wrong and *stuck wrong* the moment background
// tenants saturate the DPU mid-run. With re-probing on (the "feedback"
// policy) the learner keeps the freeze (collective participants must stay
// in lockstep) but watches the frozen path with windowed cost estimates and
// re-probes when the observed world drifts away from the one the freeze was
// taken in.
package policy

import (
	"math/bits"

	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fbCandidates are the group paths the learner probes. HostDirect is
// among them: coll.PolicyOps executes host-direct group decisions on the
// host MPI backend, which is exactly the escape hatch a saturated proxy
// needs (pattern.Run clamps host-direct to the proxy default, same as for
// the Adaptive policy's small-size decisions).
var fbCandidates = []datapath.Kind{
	datapath.KindCrossGVMI,
	datapath.KindStaged,
	datapath.KindHostDirect,
}

// The learner's window and drift-trigger tuning, which the drift bench is
// validated with.
const (
	// fbWindow is W, the sliding-window length of the per-(class,
	// size-bucket, path) cost estimate (observations, not time).
	fbWindow = 8
	// fbHystNum/fbHystDen form the hysteresis factor H = 3/2: a frozen
	// choice drifts only when its windowed mean exceeds its freeze-time
	// mean by H, and a queue-depth trigger only fires when the depth
	// exceeds the freeze-time depth by H. H is what keeps decisions from
	// flapping: a re-frozen choice re-bases both references, so a
	// persistently congested (or persistently idle) world triggers once,
	// not every cooldown.
	fbHystNum, fbHystDen = 3, 2
	// fbCooldown is the minimum number of calls between a (re-)freeze and
	// the next drift evaluation — back-to-back re-probes cannot happen.
	fbCooldown = 4
	// fbQueueDepthLimit arms the registry-gauge drift trigger: when the
	// maximum "core … queue_depth" gauge (proxy backlog, sampled at group
	// boundaries) is at least this AND exceeds the freeze-time depth by
	// the hysteresis factor, the frozen choice is re-probed even before
	// its own cost estimate degrades. The trigger is inert when the engine
	// records into no registry.
	fbQueueDepthLimit = 8
)

// FeedbackConfig selects the learner's variant.
type FeedbackConfig struct {
	// Reprobe arms the drift triggers (frozen-path cost exceeding its
	// freeze-time mean by the hysteresis factor, or proxy queue-depth
	// gauges crossing a threshold), which unfreeze the choice and re-probe.
	// The zero value probes once and freezes for good: the "measure"
	// policy.
	Reprobe bool
}

// DefaultFeedbackConfig returns the re-probing learner: the "feedback"
// policy.
func DefaultFeedbackConfig() FeedbackConfig { return FeedbackConfig{Reprobe: true} }

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

// fbPathStats tracks one path at one key: a sliding window of the last
// fbWindow observed costs.
type fbPathStats struct {
	win  [fbWindow]sim.Time // ring buffer
	wi   int                // next write index
	wn   int                // live entries (<= fbWindow)
	wsum sim.Time           // sum of live entries
}

func (st *fbPathStats) add(cost sim.Time) {
	if st.wn == fbWindow {
		st.wsum -= st.win[st.wi]
	} else {
		st.wn++
	}
	st.win[st.wi] = cost
	st.wsum += cost
	st.wi = (st.wi + 1) % fbWindow
}

// resetWindow drops the windowed estimate. Called when a re-probe epoch
// opens so stale pre-drift samples cannot outvote fresh probe costs.
func (st *fbPathStats) resetWindow() {
	st.wi, st.wn, st.wsum = 0, 0, 0
}

// fbEntry is the learner's table row for one (class, size-bucket).
type fbEntry struct {
	obs map[datapath.Kind]*fbPathStats

	// cands is the candidate list this entry probes: fbCandidates
	// filtered (and extended with the DSA engine) by the first request's
	// device capabilities. Caps are constant for a run — collectives
	// carry the fleet merge — so the list is fixed at entry creation and
	// identical on every rank.
	cands []datapath.Kind

	frozen bool
	choice datapath.Kind
	// fSum/fN snapshot the chosen path's windowed mean at freeze time —
	// the drift trigger's reference point.
	fSum sim.Time
	fN   int64
	// fDepth is the max proxy queue depth at freeze time (gauge trigger
	// reference; re-freezing under congestion re-bases it, so a
	// persistently loaded proxy does not re-trigger every cooldown).
	fDepth     float64
	freezeCall int
	// probeStart is the first call of the current probe round; epoch
	// counts completed re-probe rounds (0 = initial learning).
	probeStart int
	epoch      int

	// decisions memoizes every call's decision. The engine is shared by
	// all ranks of a job, but their Decide calls interleave with cost
	// observations from completing operations — whichever rank decides a
	// call first locks the answer for every peer, which is what keeps
	// collective participants in lockstep across re-probes.
	decisions map[int]Decision
}

// fbMemoHorizon bounds the per-entry decision memo: collectives keep rank
// skew within a call or two, so decisions this far behind the newest call
// can no longer be requested and are pruned.
const fbMemoHorizon = 64

// Feedback is the online learner behind the "measure" and "feedback"
// policies. See the package comment for the rank-consistency argument and
// FeedbackConfig for the drift triggers.
type Feedback struct {
	reprobe bool
	table   map[costKey]*fbEntry
	reg     *metrics.Registry
}

// NewFeedback returns an empty-table learner of the given variant.
func NewFeedback(cfg FeedbackConfig) *Feedback {
	return &Feedback{reprobe: cfg.Reprobe, table: make(map[costKey]*fbEntry)}
}

// Name implements Policy.
func (f *Feedback) Name() string {
	if f.reprobe {
		return "feedback"
	}
	return "measure"
}

// AttachRegistry implements RegistryConsumer: the policy reads proxy
// queue-depth gauges out of the registry the engine records into. A nil
// registry simply disarms the gauge trigger (the cost trigger needs no
// registry). Note tenant.Run always wires a live registry, so the drift
// bench's decisions never depend on whether -metrics was passed.
func (f *Feedback) AttachRegistry(m *metrics.Registry) { f.reg = m }

func (f *Feedback) entry(q Request) *fbEntry {
	key := costKey{q.Class, sizeBucket(q.Size)}
	e := f.table[key]
	if e == nil {
		e = &fbEntry{
			obs:       make(map[datapath.Kind]*fbPathStats),
			cands:     capsCandidates(q.Caps),
			decisions: make(map[int]Decision),
		}
		f.table[key] = e
	}
	return e
}

// capsCandidates filters the probe list by device capabilities: paths the
// device cannot run are dropped (probing them would just re-measure their
// fallback under another name) and the DSA engine joins the list when one
// exists. Nil or full-capability profiles reproduce fbCandidates exactly.
func capsCandidates(p *device.Profile) []datapath.Kind {
	if p == nil {
		return fbCandidates
	}
	cands := make([]datapath.Kind, 0, len(fbCandidates)+1)
	if p.CrossGVMI {
		cands = append(cands, datapath.KindCrossGVMI)
	}
	if p.HasDSA {
		cands = append(cands, datapath.KindDSA)
	}
	return append(cands, datapath.KindStaged, datapath.KindHostDirect)
}

// Decide implements Policy.
func (f *Feedback) Decide(q Request) Decision {
	if q.Class != ClassGroup {
		// Probing p2p/one-sided traffic would need both endpoints to flip
		// paths together; stay on the class/size-deterministic rule (see
		// the package comment).
		return sizeRule(q, SmallMsgCutoff)
	}
	e := f.entry(q)
	if d, ok := e.decisions[q.Call]; ok {
		return d
	}
	d := f.decide(e, q.Call)
	e.decisions[q.Call] = d
	delete(e.decisions, q.Call-fbMemoHorizon)
	return d
}

// decide computes the first-rank decision for one call of an entry.
func (f *Feedback) decide(e *fbEntry, call int) Decision {
	if !e.frozen {
		reason := "probe"
		if e.epoch > 0 {
			reason = "reprobe"
		}
		if idx := call - e.probeStart; idx >= 0 && idx < len(e.cands) {
			return Decision{Path: e.cands[idx], Reason: reason}
		}
		best, ok := f.argmin(e)
		if !ok {
			// Every probe cost was lost (a chaos drop can kill the
			// completion that would have fed Observe). Freezing now would
			// lock argmin on an empty table, so keep probing round-robin
			// until a cost lands.
			return Decision{Path: e.cands[(call-e.probeStart)%len(e.cands)], Reason: "probe-retry"}
		}
		st := e.obs[best]
		e.frozen, e.choice = true, best
		e.fSum, e.fN = st.wsum, int64(st.wn)
		e.fDepth = f.queueDepth()
		e.freezeCall = call
		return Decision{Path: best, Reason: "learned"}
	}
	if f.reprobe && call-e.freezeCall >= fbCooldown && f.drifted(e) {
		// Open a re-probe epoch: fresh windows, candidates walked in
		// order starting at this call; the freeze a few calls later
		// re-bases the drift references.
		e.frozen = false
		e.epoch++
		e.probeStart = call
		for _, st := range e.obs {
			st.resetWindow()
		}
		return Decision{Path: e.cands[0], Reason: "reprobe"}
	}
	return Decision{Path: e.choice, Reason: "learned"}
}

// argmin picks the observed candidate with the lowest windowed mean,
// compared exactly via integer cross-products; an unobserved candidate
// never wins. On re-probe epochs the incumbent is considered first, so a
// full tie keeps the previous choice (no flap on equal costs); the initial
// epoch prefers candidate order.
func (f *Feedback) argmin(e *fbEntry) (datapath.Kind, bool) {
	order := e.cands
	if e.epoch > 0 {
		order = make([]datapath.Kind, 0, len(e.cands))
		order = append(order, e.choice)
		for _, k := range e.cands {
			if k != e.choice {
				order = append(order, k)
			}
		}
	}
	var best datapath.Kind
	var bestSum sim.Time
	var bestN int64
	found := false
	for _, k := range order {
		st := e.obs[k]
		if st == nil || st.wn == 0 {
			continue
		}
		if !found || meanLess(st.wsum, int64(st.wn), bestSum, bestN) {
			best, bestSum, bestN, found = k, st.wsum, int64(st.wn), true
		}
	}
	return best, found
}

// drifted reports whether the frozen choice's world has moved: its
// windowed mean exceeds the freeze-time mean by the hysteresis factor, or
// the proxy backlog gauge crossed the armed threshold and the freeze-time
// depth by the same factor.
func (f *Feedback) drifted(e *fbEntry) bool {
	st := e.obs[e.choice]
	if st != nil && st.wn >= 2 && e.fN > 0 {
		// winMean > frozenMean * H  <=>  fSum*wn*HNum < wsum*fN*HDen,
		// compared in 128-bit integer space (counts and H are small, so
		// folding them into one 64-bit factor cannot overflow).
		if meanLess(e.fSum, e.fN*fbHystDen, st.wsum, int64(st.wn)*fbHystNum) {
			return true
		}
	}
	if e.choice != datapath.KindHostDirect {
		// Proxy backlog only concerns proxy-backed choices: a frozen
		// host-direct decision is immune to the very congestion it
		// routed around, so a deep queue must not bounce it back.
		if d := f.queueDepth(); d >= fbQueueDepthLimit && d*fbHystDen > e.fDepth*fbHystNum {
			return true
		}
	}
	return false
}

// queueDepth reads the worst current proxy backlog from the registry (0
// without one — gauge trigger disarmed).
func (f *Feedback) queueDepth() float64 {
	v, ok := f.reg.MaxGauge("core", "queue_depth")
	if !ok {
		return 0
	}
	return v
}

// Observe implements Policy: costs feed both the lifetime totals and the
// sliding window. Observation continues after the freeze — the frozen
// path's window is exactly what the drift trigger watches.
func (f *Feedback) Observe(q Request, k datapath.Kind, cost sim.Time) {
	if q.Class != ClassGroup {
		return
	}
	e := f.entry(q)
	st := e.obs[k]
	if st == nil {
		st = &fbPathStats{}
		e.obs[k] = st
	}
	st.add(cost)
}
