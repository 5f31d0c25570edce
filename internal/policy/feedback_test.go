package policy

import (
	"slices"
	"testing"

	"repro/internal/datapath"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func fbReq(call int) Request { return Request{Class: ClassGroup, Size: 64 << 10, Call: call} }

// variants are the learner's two configurations: "measure" (re-probing
// off) and "feedback" (re-probing on).
var variants = []FeedbackConfig{{}, DefaultFeedbackConfig()}

// forEachVariant runs body once per learner variant, as a subtest named
// after the policy.
func forEachVariant(t *testing.T, body func(t *testing.T, cfg FeedbackConfig)) {
	t.Helper()
	for _, cfg := range variants {
		t.Run(NewFeedback(cfg).Name(), func(t *testing.T) { body(t, cfg) })
	}
}

// probeAll walks the first probe round at one payload size, asserting that
// call i probes candidate i, and feeds back costs[i] for it.
func probeAll(t *testing.T, f *Feedback, size int, costs []sim.Time) {
	t.Helper()
	for call, k := range fbCandidates {
		q := Request{Class: ClassGroup, Size: size, Call: call}
		if d := f.Decide(q); d.Path != k || d.Reason != "probe" {
			t.Fatalf("call %d: %+v, want probe %v", call, d, k)
		}
		f.Observe(q, k, costs[call])
	}
}

func TestFeedbackNames(t *testing.T) {
	if n := NewFeedback(FeedbackConfig{}).Name(); n != "measure" {
		t.Fatalf("zero config names itself %q, want measure", n)
	}
	if n := NewFeedback(DefaultFeedbackConfig()).Name(); n != "feedback" {
		t.Fatalf("default config names itself %q, want feedback", n)
	}
}

// The probe window walks the candidates in order; the first post-probe
// call freezes on the cheapest observed mean, and cheaper observations of
// another path afterwards no longer move the choice.
func TestFeedbackProbesThenFreezes(t *testing.T) {
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		f := NewFeedback(cfg)
		probeAll(t, f, 64<<10, []sim.Time{100, 50, 200})
		call := len(fbCandidates)
		if d := f.Decide(fbReq(call)); d.Path != datapath.KindStaged || d.Reason != "learned" {
			t.Fatalf("call %d: %+v, want learned staged", call, d)
		}
		for call++; call < 20; call++ {
			f.Observe(fbReq(call), datapath.KindCrossGVMI, 1)
			if d := f.Decide(fbReq(call)); d.Path != datapath.KindStaged || d.Reason != "learned" {
				t.Fatalf("frozen choice moved at call %d: %+v", call, d)
			}
			f.Observe(fbReq(call), datapath.KindStaged, 50)
		}
	})
}

// The core feedback loop: probe → freeze → hold under stable costs (no
// flap) → re-probe when the frozen path's windowed mean exceeds its
// freeze-time mean by the hysteresis factor → re-freeze on the new argmin.
func TestFeedbackReprobesOnCostDrift(t *testing.T) {
	f := NewFeedback(DefaultFeedbackConfig())
	costs := map[datapath.Kind]sim.Time{
		datapath.KindCrossGVMI:  100,
		datapath.KindStaged:     300,
		datapath.KindHostDirect: 200,
	}
	call := 0
	for i, k := range fbCandidates {
		d := f.Decide(fbReq(call))
		if d.Path != k || d.Reason != "probe" {
			t.Fatalf("probe call %d: %+v, want probe %v", i, d, k)
		}
		f.Observe(fbReq(call), d.Path, costs[d.Path])
		call++
	}

	// Frozen on the cheapest probe (cross-GVMI); cost jitter below the 3/2
	// hysteresis must never trigger a re-probe.
	for i := 0; i < 20; i++ {
		d := f.Decide(fbReq(call))
		if d.Path != datapath.KindCrossGVMI || d.Reason != "learned" {
			t.Fatalf("stable call %d: %+v, want learned cross-GVMI (no flap)", call, d)
		}
		f.Observe(fbReq(call), d.Path, 100+sim.Time(i%3))
		call++
	}

	// The world drifts: frozen-path costs jump 10x. Within a window's worth
	// of observations the trigger must fire.
	var d Decision
	for i := 0; i < 16; i++ {
		d = f.Decide(fbReq(call))
		if d.Reason == "reprobe" {
			break
		}
		f.Observe(fbReq(call), d.Path, 1000)
		call++
	}
	if d.Reason != "reprobe" {
		t.Fatalf("10x cost drift never triggered a re-probe (last decision %+v)", d)
	}

	// The re-probe epoch walks every candidate again on fresh windows;
	// host-direct is now the cheap path and must win the re-freeze.
	newCosts := map[datapath.Kind]sim.Time{
		datapath.KindCrossGVMI:  1000,
		datapath.KindStaged:     900,
		datapath.KindHostDirect: 50,
	}
	f.Observe(fbReq(call), d.Path, newCosts[d.Path])
	call++
	for i := 1; i < len(fbCandidates); i++ {
		d = f.Decide(fbReq(call))
		if d.Reason != "reprobe" {
			t.Fatalf("re-probe walk call %d: %+v", i, d)
		}
		f.Observe(fbReq(call), d.Path, newCosts[d.Path])
		call++
	}
	if d := f.Decide(fbReq(call)); d.Path != datapath.KindHostDirect || d.Reason != "learned" {
		t.Fatalf("post-re-probe freeze %+v, want learned hostdirect", d)
	}
}

// With re-probing off neither drift trigger ever fires: a 10x cost jump on
// the frozen path and a proxy backlog of 16 in an attached registry leave
// the freeze alone. The same script re-probes the feedback variant, so the
// triggers are really exercised.
func TestMeasureNeverReprobes(t *testing.T) {
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		f := NewFeedback(cfg)
		reg := metrics.NewRegistry()
		NewEngine(f, reg)
		probeAll(t, f, 64<<10, []sim.Time{100, 200, 300})
		reg.Gauge("core", "proxy0", "queue_depth").Set(16)
		reprobes := 0
		for call := len(fbCandidates); call < 64; call++ {
			d := f.Decide(fbReq(call))
			if d.Reason == "reprobe" {
				reprobes++
			}
			f.Observe(fbReq(call), d.Path, 1000)
		}
		if cfg.Reprobe && reprobes == 0 {
			t.Fatal("feedback never re-probed under a 10x cost jump and a deep backlog")
		}
		if !cfg.Reprobe && reprobes != 0 {
			t.Fatalf("measure re-probed %d times", reprobes)
		}
	})
}

// The queue-depth gauge trigger re-probes a frozen proxy choice when the
// backlog crosses the armed threshold — but must leave a frozen
// host-direct choice alone: host-direct routed *around* the congested
// proxy, so a deep queue says nothing about it, and bouncing it back is
// exactly the flap the hysteresis exists to prevent.
func TestFeedbackGaugeTriggerSparesHostDirect(t *testing.T) {
	freeze := func(cheap datapath.Kind) (*Feedback, *metrics.Registry, int) {
		t.Helper()
		f := NewFeedback(DefaultFeedbackConfig())
		reg := metrics.NewRegistry()
		f.AttachRegistry(reg)
		call := 0
		for _, k := range fbCandidates {
			d := f.Decide(fbReq(call))
			cost := sim.Time(500)
			if d.Path == cheap {
				cost = 100
			}
			f.Observe(fbReq(call), k, cost)
			call++
		}
		if d := f.Decide(fbReq(call)); d.Path != cheap || d.Reason != "learned" {
			t.Fatalf("freeze on %v: got %+v", cheap, d)
		}
		call++
		return f, reg, call
	}

	// Frozen on the proxy path, backlog 16 >= limit 8 (freeze-time depth 0):
	// re-probe once the cooldown expires. Costs stay stable throughout, so
	// only the gauge can be the trigger.
	f, reg, call := freeze(datapath.KindCrossGVMI)
	reg.Gauge("core", "proxy0", "queue_depth").Set(16)
	var got Decision
	for i := 0; i <= fbCooldown; i++ {
		got = f.Decide(fbReq(call))
		if got.Reason == "reprobe" {
			break
		}
		f.Observe(fbReq(call), got.Path, 100)
		call++
	}
	if got.Reason != "reprobe" {
		t.Fatalf("deep proxy backlog never re-probed the frozen proxy choice (last %+v)", got)
	}

	// Frozen on host-direct under the same backlog: no re-probe, ever.
	f, reg, call = freeze(datapath.KindHostDirect)
	reg.Gauge("core", "proxy0", "queue_depth").Set(16)
	for i := 0; i < 3*fbCooldown; i++ {
		d := f.Decide(fbReq(call))
		if d.Path != datapath.KindHostDirect || d.Reason != "learned" {
			t.Fatalf("frozen host-direct bounced on a proxy backlog: call %d %+v", call, d)
		}
		f.Observe(fbReq(call), d.Path, 100)
		call++
	}
}

// Ranks of one collective interleave their Decide calls with cost
// observations from completing operations. The per-call decision memo
// must pin every call to whatever the first rank saw — especially at the
// drift boundary, where a burst of slow completions landing between two
// ranks' Decide calls would otherwise send one rank re-probing while its
// peer replays the frozen choice (deadlock).
func TestFeedbackRankConsistencyAtDriftBoundary(t *testing.T) {
	const ranks = 4
	f := NewFeedback(DefaultFeedbackConfig())
	call := 0
	lockstep := func(observeCost sim.Time) Decision {
		t.Helper()
		first := f.Decide(fbReq(call))
		f.Observe(fbReq(call), first.Path, observeCost)
		for r := 1; r < ranks; r++ {
			if d := f.Decide(fbReq(call)); d != first {
				t.Fatalf("call %d rank %d diverged: %+v vs %+v", call, r, d, first)
			}
			// Peer completions skew the table between the ranks' decisions.
			f.Observe(fbReq(call), first.Path, observeCost+sim.Time(10*r))
		}
		call++
		return first
	}

	for i := 0; i < len(fbCandidates); i++ {
		lockstep(100)
	}
	// Stable frozen calls past the cooldown.
	for i := 0; i < fbCooldown+1; i++ {
		if d := lockstep(100); d.Reason != "learned" {
			t.Fatalf("stable call froze wrong: %+v", d)
		}
	}

	// Drift boundary: rank 0 sees no drift at this call; eight 100x-slower
	// completions land before the peers ask about the same call.
	d0 := f.Decide(fbReq(call))
	if d0.Reason != "learned" {
		t.Fatalf("boundary call: %+v, want learned", d0)
	}
	for i := 0; i < 8; i++ {
		f.Observe(fbReq(call), d0.Path, 10000)
	}
	for r := 1; r < ranks; r++ {
		if d := f.Decide(fbReq(call)); d != d0 {
			t.Fatalf("rank %d diverged at the drift boundary: %+v vs %+v", r, d, d0)
		}
	}
	call++
	// The deferred re-probe fires on the next call — for every rank.
	dn := f.Decide(fbReq(call))
	if dn.Reason != "reprobe" {
		t.Fatalf("drift swallowed by the memo: %+v", dn)
	}
	for r := 1; r < ranks; r++ {
		if d := f.Decide(fbReq(call)); d != dn {
			t.Fatalf("rank %d diverged on the re-probe call: %+v vs %+v", r, d, dn)
		}
	}
}

// Regression for the frozen-empty-table bug: when probe costs are lost (a
// chaos drop kills the completion that would have fed Observe), the
// learner must keep probing with reason "probe-retry" instead of freezing
// argmin on an unobserved entry. Losses are drawn from a real
// fault.Injector stream so the test exercises the same deterministic drop
// pattern chaos runs produce.
func TestMeasuringProbeRetryUnderFaultDrops(t *testing.T) {
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		// Total loss: every observation dropped, so the policy may never
		// freeze.
		inj := fault.NewInjector(&fault.Config{Seed: 7, DropRate: 1}, nil)
		f := NewFeedback(cfg)
		for call := 0; call < 12; call++ {
			d := f.Decide(fbReq(call))
			if !d.Path.Valid() {
				t.Fatalf("call %d: invalid path %v", call, d.Path)
			}
			if call >= len(fbCandidates) && d.Reason != "probe-retry" {
				t.Fatalf("call %d: reason %q, want probe-retry (nothing observed yet)", call, d.Reason)
			}
			if inj.FateFor() != fault.FateDrop {
				t.Fatal("drop-rate-1 injector delivered a message")
			}
		}

		// Partial loss: the first cost that survives the injector unlocks
		// a real, valid freeze on the next decision.
		inj = fault.NewInjector(&fault.Config{Seed: 7, DropRate: 0.5}, nil)
		f = NewFeedback(cfg)
		observed := false
		call := 0
		for ; call < 32 && !observed; call++ {
			d := f.Decide(fbReq(call))
			if d.Reason == "learned" {
				t.Fatalf("call %d: froze before any observation", call)
			}
			if inj.FateFor() != fault.FateDrop {
				f.Observe(fbReq(call), d.Path, sim.Time(100+call))
				observed = true
			}
		}
		if !observed {
			t.Fatal("seeded injector never delivered in 32 draws")
		}
		for ; call < 32; call++ {
			if d := f.Decide(fbReq(call)); d.Reason == "learned" && d.Path.Valid() {
				break
			}
		}
		if call == 32 {
			t.Fatal("no learned freeze after a cost landed")
		}
	})
}

// An entry stuck in probe-retry (every probe cost lost) never freezes, and
// non-group traffic decided alongside it still takes the Adaptive rule.
func TestFeedbackProbeRetryAndFallback(t *testing.T) {
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		f := NewFeedback(cfg)
		for call := 0; call < 10; call++ {
			d := f.Decide(fbReq(call))
			if d.Reason == "learned" {
				t.Fatalf("call %d: froze with an empty cost table", call)
			}
			if call >= len(fbCandidates) && d.Reason != "probe-retry" {
				t.Fatalf("call %d: reason %q, want probe-retry", call, d.Reason)
			}
			// No Observe: every probe cost lost.
		}

		for _, q := range []Request{
			{Class: ClassP2P, Size: 4 << 10},
			{Class: ClassP2P, Size: 1 << 20, Intra: true},
			{Class: ClassOneSided, Size: 64 << 10},
		} {
			if got, want := f.Decide(q), sizeRule(q, SmallMsgCutoff); got != want {
				t.Errorf("Decide(%+v) = %+v, want adaptive %+v", q, got, want)
			}
		}
	})
}

// A full tie among observed costs freezes on the first candidate, and an
// entry the caller never fed costs back to still decides a valid path.
// Costs here arrive through Observe alone, before any Decide on the entry.
func TestMeasuringTieAndMissingObservations(t *testing.T) {
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		f := NewFeedback(cfg)
		for call, k := range fbCandidates {
			f.Observe(Request{Class: ClassGroup, Size: 4 << 10, Call: call}, k, 70)
		}
		q := Request{Class: ClassGroup, Size: 4 << 10, Call: len(fbCandidates)}
		if d := f.Decide(q); d.Path != datapath.KindCrossGVMI || d.Reason != "learned" {
			t.Fatalf("tie: %+v, want learned cross-GVMI", d)
		}

		f = NewFeedback(cfg)
		if d := f.Decide(Request{Class: ClassGroup, Size: 8, Call: 5}); !d.Path.Valid() || d.Reason == "learned" {
			t.Fatalf("unobserved entry decided %+v, want a valid non-learned path", d)
		}
	})
}

// Probing p2p/one-sided traffic would need both endpoints to flip paths
// together, so non-group traffic stays on the Adaptive size rule.
func TestMeasuringP2PFallsBackToAdaptive(t *testing.T) {
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		f := NewFeedback(cfg)
		for _, q := range []Request{
			{Class: ClassP2P, Size: 4 << 10},
			{Class: ClassP2P, Size: 1 << 20},
			{Class: ClassP2P, Size: 1 << 20, Intra: true},
			{Class: ClassOneSided, Size: 64 << 10},
			{Class: ClassOneSided, Size: 1 << 20},
		} {
			if got, want := f.Decide(q), sizeRule(q, SmallMsgCutoff); got != want {
				t.Errorf("Decide(%+v) = %+v, want adaptive %+v", q, got, want)
			}
		}
	})
}

// Two sizes in one log2 bucket must share a learned entry: a site whose
// payload jitters by a few bytes (1500 vs 1600) reuses the frozen choice
// instead of re-probing forever on an unboundedly growing table.
func TestCostKeyLog2Bucketing(t *testing.T) {
	if a, b := sizeBucket(1500), sizeBucket(1600); a != b {
		t.Fatalf("sizeBucket(1500)=%d != sizeBucket(1600)=%d", a, b)
	}
	if a, b := sizeBucket(1024), sizeBucket(2047); a != b {
		t.Fatalf("sizeBucket(1024)=%d != sizeBucket(2047)=%d (same power-of-two span)", a, b)
	}
	if sizeBucket(2047) == sizeBucket(2048) {
		t.Fatal("2047 and 2048 share a bucket across the power-of-two boundary")
	}
	if sizeBucket(0) != 0 || sizeBucket(-4) != 0 {
		t.Fatalf("non-positive sizes must land in bucket 0, got %d and %d", sizeBucket(0), sizeBucket(-4))
	}

	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		f := NewFeedback(cfg)
		probeAll(t, f, 1500, []sim.Time{100, 50, 200})
		// 1600 bytes lands in the same bucket: it inherits the frozen
		// choice learned at 1500 bytes without a fresh probe round.
		q := Request{Class: ClassGroup, Size: 1600, Call: len(fbCandidates)}
		if d := f.Decide(q); d.Reason != "learned" || d.Path != datapath.KindStaged {
			t.Fatalf("1600B decision %+v, want learned staged via the shared bucket", d)
		}
	})
}

// The argmin compares means via integer cross-products; the float64
// division it used to go through rounds 2^53 and 2^53+1 to the same
// value, silently flipping outcomes at large magnitudes. The exact
// comparison must still order such sums, and a true tie must break to
// the first candidate deterministically.
func TestArgminIntegerExactness(t *testing.T) {
	const big = sim.Time(1) << 53
	if !meanLess(big, 1, big+1, 1) {
		t.Fatal("meanLess(2^53, 2^53+1) = false; 1 ns difference lost")
	}
	if meanLess(big+1, 1, big, 1) {
		t.Fatal("meanLess ordered 2^53+1 below 2^53")
	}
	if meanLess(big, 1, big, 1) {
		t.Fatal("equal means compared as strictly less")
	}
	// Cross-products with differing counts: 3/2 vs 301/200 differs only in
	// the third decimal — 3*200=600 vs 301*2=602 must still resolve.
	if !meanLess(3, 2, 301, 200) {
		t.Fatal("meanLess(3/2, 301/200) = false")
	}

	freeze := func(t *testing.T, cfg FeedbackConfig, costs []sim.Time) Decision {
		t.Helper()
		f := NewFeedback(cfg)
		probeAll(t, f, 64<<10, costs)
		return f.Decide(fbReq(len(fbCandidates)))
	}
	forEachVariant(t, func(t *testing.T, cfg FeedbackConfig) {
		if d := freeze(t, cfg, []sim.Time{big + 1, big, big + 2}); d.Path != datapath.KindStaged {
			t.Fatalf("argmin at 2^53 magnitudes picked %v, want staged (1 ns cheaper)", d.Path)
		}
		// Exact tie at the same magnitude: first candidate wins, always.
		if d := freeze(t, cfg, []sim.Time{big, big, big}); d.Path != datapath.KindCrossGVMI {
			t.Fatalf("tie at 2^53 broke to %v, want first candidate cross-GVMI", d.Path)
		}
	})
}

// The engine is the only place registries reach policies: NewEngineFor
// must hand its registry to any RegistryConsumer policy, and the
// feedback policy's gauge readback must be inert on every degenerate
// path — no registry attached, a nil registry, or a registry that has
// no queue-depth gauge yet — while a live registry reads the maximum
// across all proxy entities.
func TestFeedbackRegistryConsumerGaugeReadback(t *testing.T) {
	// NewEngineFor wires the registry through the RegistryConsumer
	// interface; the policy must see the very registry the engine records
	// into, and a nil-registry engine must attach nil (not skip the call,
	// which would leave a stale registry from a prior attach).
	f := NewFeedback(DefaultFeedbackConfig())
	reg := metrics.NewRegistry()
	NewEngineFor(f, reg, "fg")
	if f.reg != reg {
		t.Fatal("NewEngineFor did not attach its registry to the RegistryConsumer policy")
	}
	NewEngine(f, nil)
	if f.reg != nil {
		t.Fatal("NewEngine(nil) left a stale registry attached")
	}

	// Detached and nil-registry reads are 0 (gauge trigger disarmed).
	if d := (&Feedback{}).queueDepth(); d != 0 {
		t.Fatalf("detached policy read queue depth %v, want 0", d)
	}
	if d := f.queueDepth(); d != 0 {
		t.Fatalf("nil registry read queue depth %v, want 0", d)
	}

	// A live registry without the gauge reads 0; unrelated series (other
	// layers, other names) must not leak into the readback.
	f.AttachRegistry(reg)
	reg.Counter("core", "proxy0", "queue_depth").Add(99) // counter, not gauge
	reg.Gauge("fabric", "ep0", "queue_depth").Set(50)    // wrong layer
	reg.Gauge("core", "proxy0", "inflight").Set(50)      // wrong name
	if d := f.queueDepth(); d != 0 {
		t.Fatalf("missing gauge read queue depth %v, want 0", d)
	}

	// With real per-proxy gauges the readback is the max across entities.
	reg.Gauge("core", "proxy0", "queue_depth").Set(3)
	reg.Gauge("core", "proxy1", "queue_depth").Set(12)
	reg.GaugeT("core", "proxy2", "queue_depth", "bg").Set(7)
	if d := f.queueDepth(); d != 12 {
		t.Fatalf("queue depth %v, want max across entities 12", d)
	}
}

// End to end on the degenerate path: a feedback policy frozen on a proxy
// choice with the gauge trigger armed but no registry behind it must hold
// the freeze forever under stable costs — the trigger is disarmed, not
// misread as depth 0 crossing some threshold.
func TestFeedbackGaugeTriggerInertWithoutRegistry(t *testing.T) {
	f := NewFeedback(DefaultFeedbackConfig())
	call := 0
	for _, k := range fbCandidates {
		d := f.Decide(fbReq(call))
		cost := sim.Time(500)
		if d.Path == datapath.KindCrossGVMI {
			cost = 100
		}
		f.Observe(fbReq(call), k, cost)
		call++
	}
	for i := 0; i < 3*fbCooldown; i++ {
		d := f.Decide(fbReq(call))
		if d.Path != datapath.KindCrossGVMI || d.Reason != "learned" {
			t.Fatalf("call %d: %+v, want learned cross-GVMI (no registry, no trigger)", call, d)
		}
		f.Observe(fbReq(call), d.Path, 100)
		call++
	}
}

// FuzzLearnerLockstep drives 2–8 ranks of one collective through the
// learner in a fuzz-chosen interleaving of Decide and Observe calls. Each
// input byte picks the rank that acts next (the first able one from there
// on) and, for an observation, the cost; the extreme costs also empty or
// flood the proxy backlog gauge. A rank observes its call only once every
// rank has decided it, as a collective completes only after all ranks
// joined it. For both variants: every rank gets the same Decision for a
// call, nothing is "learned" before any cost landed, and measure never
// re-probes.
func FuzzLearnerLockstep(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, nranks uint8, ops []byte) {
		ranks := 2 + int(nranks)%7
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		for _, cfg := range variants {
			p := NewFeedback(cfg)
			reg := metrics.NewRegistry()
			eng := NewEngine(p, reg)
			depth := reg.Gauge("core", "proxy0", "queue_depth")
			decided := make([]int, ranks)   // calls decided so far, per rank
			pending := make([]bool, ranks)  // decided its last call, not yet observed
			held := make([]Decision, ranks) // that call's decision
			var calls []Decision            // first rank's decision, per call
			observed := 0
			for _, b := range ops {
				r := int(b&7) % ranks
				for i := 0; i < ranks; i++ {
					rr := (r + i) % ranks
					if !pending[rr] || slices.Min(decided) >= decided[rr] {
						r = rr
						break
					}
				}
				if pending[r] {
					call := decided[r] - 1
					cost := sim.Time(b>>3)*50 + 10
					switch b >> 3 {
					case 0:
						depth.Set(0)
					case 31:
						depth.Set(16)
					}
					eng.Observe(fbReq(call), held[r].Path, cost)
					observed++
					pending[r] = false
					continue
				}
				call := decided[r]
				d := eng.Decide(fbReq(call))
				if call == len(calls) {
					calls = append(calls, d)
				} else if d != calls[call] {
					t.Fatalf("%s, %d ranks: rank %d got %+v at call %d, first rank got %+v",
						p.Name(), ranks, r, d, call, calls[call])
				}
				if d.Reason == "learned" && observed == 0 {
					t.Fatalf("%s: call %d learned %v before any cost landed", p.Name(), call, d.Path)
				}
				if d.Reason == "reprobe" && !cfg.Reprobe {
					t.Fatalf("measure re-probed at call %d", call)
				}
				decided[r]++
				pending[r], held[r] = true, d
			}
		}
	})
}
