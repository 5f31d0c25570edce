package policy

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Regression for the frozen-empty-table bug: when probe costs are lost
// (a chaos drop kills the completion that would have fed Observe),
// Measuring must keep probing with reason "probe-retry" instead of
// freezing argmin on an unobserved entry. Losses are drawn from a real
// fault.Injector stream so the test exercises the same deterministic
// drop pattern chaos runs produce.
func TestMeasuringProbeRetryUnderFaultDrops(t *testing.T) {
	q := func(call int) Request { return Request{Class: ClassGroup, Size: 64 << 10, Call: call} }

	// Total loss: every observation dropped, so the policy may never freeze.
	inj := fault.NewInjector(&fault.Config{Seed: 7, DropRate: 1}, nil)
	m := NewMeasuring()
	for call := 0; call < 12; call++ {
		d := m.Decide(q(call))
		if !d.Path.Valid() {
			t.Fatalf("call %d: invalid path %v", call, d.Path)
		}
		if d.Reason == "learned" {
			t.Fatalf("call %d: froze with an empty cost table: %+v", call, d)
		}
		if call >= len(groupCandidates) && d.Reason != "probe-retry" {
			t.Fatalf("call %d: reason %q, want probe-retry (nothing observed yet)", call, d.Reason)
		}
		if inj.FateFor() != fault.FateDrop {
			t.Fatal("drop-rate-1 injector delivered a message")
		}
		// The completion was dropped: Observe never fires for this call.
	}

	// Partial loss: the first cost that survives the injector unlocks a
	// real, valid freeze on the next decision.
	inj = fault.NewInjector(&fault.Config{Seed: 7, DropRate: 0.5}, nil)
	m = NewMeasuring()
	observed := false
	for call := 0; call < 32 && !observed; call++ {
		d := m.Decide(q(call))
		if d.Reason == "learned" {
			t.Fatalf("call %d: froze before any observation", call)
		}
		if inj.FateFor() != fault.FateDrop {
			m.Observe(q(call), d.Path, sim.Time(100+call))
			observed = true
		}
	}
	if !observed {
		t.Fatal("seeded injector never delivered in 32 draws")
	}
	if d := m.Decide(q(100)); d.Reason != "learned" || !d.Path.Valid() {
		t.Fatalf("post-observation decision %+v, want a learned freeze", d)
	}
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

	m := NewMeasuring()
	probe := func(call, size int, k datapath.Kind, cost sim.Time) {
		t.Helper()
		q := Request{Class: ClassGroup, Size: size, Call: call}
		if d := m.Decide(q); d.Reason != "probe" || d.Path != k {
			t.Fatalf("call %d (%dB): %+v, want probe %v", call, size, d, k)
		}
		m.Observe(q, k, cost)
	}
	probe(0, 1500, datapath.KindCrossGVMI, 100)
	probe(1, 1500, datapath.KindStaged, 50)
	// 1600 bytes lands in the same bucket: it inherits the frozen choice
	// learned at 1500 bytes without a fresh probe round.
	if d := m.Decide(Request{Class: ClassGroup, Size: 1600, Call: 2}); d.Reason != "learned" || d.Path != datapath.KindStaged {
		t.Fatalf("1600B decision %+v, want learned staged via the shared bucket", d)
	}
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

	q := func(call int) Request { return Request{Class: ClassGroup, Size: 32 << 10, Call: call} }
	m := NewMeasuring()
	m.Decide(q(0))
	m.Observe(q(0), datapath.KindCrossGVMI, big+1)
	m.Decide(q(1))
	m.Observe(q(1), datapath.KindStaged, big)
	if d := m.Decide(q(2)); d.Path != datapath.KindStaged {
		t.Fatalf("argmin at 2^53 magnitudes picked %v, want staged (1 ns cheaper)", d.Path)
	}

	// Exact tie at the same magnitude: first candidate wins, always.
	m2 := NewMeasuring()
	m2.Decide(q(0))
	m2.Observe(q(0), datapath.KindCrossGVMI, big)
	m2.Decide(q(1))
	m2.Observe(q(1), datapath.KindStaged, big)
	if d := m2.Decide(q(2)); d.Path != datapath.KindCrossGVMI {
		t.Fatalf("tie at 2^53 broke to %v, want first candidate cross-GVMI", d.Path)
	}
}
