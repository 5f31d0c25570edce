package policy

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestFixedAlwaysSamePath(t *testing.T) {
	for k := datapath.Kind(0); k.Valid(); k++ {
		f := Fixed{Path: k}
		for _, q := range []Request{
			{Class: ClassP2P, Size: 8},
			{Class: ClassGroup, Size: 1 << 20, Call: 3},
			{Class: ClassOneSided, Size: 64 << 10, Intra: true},
		} {
			if d := f.Decide(q); d.Path != k || d.Reason != "fixed" {
				t.Fatalf("Fixed{%v}.Decide(%+v) = %+v", k, q, d)
			}
		}
	}
}

func TestAdaptiveRule(t *testing.T) {
	cases := []struct {
		q      Request
		want   datapath.Kind
		reason string
	}{
		// Groups: host at or below the eager cutoff, cross-GVMI above.
		{Request{Class: ClassGroup, Size: SmallMsgCutoff}, datapath.KindHostDirect, "small-msg"},
		{Request{Class: ClassGroup, Size: SmallMsgCutoff + 1}, datapath.KindCrossGVMI, "group-direct"},
		// One-sided always offloads.
		{Request{Class: ClassOneSided, Size: 8}, datapath.KindCrossGVMI, "one-sided"},
		// P2P: intra-node beats everything, then the eager cutoff.
		{Request{Class: ClassP2P, Size: 1 << 20, Intra: true}, datapath.KindHostDirect, "intra-node"},
		{Request{Class: ClassP2P, Size: SmallMsgCutoff}, datapath.KindHostDirect, "small-msg"},
		{Request{Class: ClassP2P, Size: SmallMsgCutoff + 1}, datapath.KindCrossGVMI, "large-msg"},
	}
	for _, c := range cases {
		d := Adaptive{}.Decide(c.q)
		if d.Path != c.want || d.Reason != c.reason {
			t.Errorf("Adaptive.Decide(%+v) = %+v, want {%v %s}", c.q, d, c.want, c.reason)
		}
	}
}

func TestMeasuringProbesThenFreezes(t *testing.T) {
	m := NewMeasuring()
	q := func(call int) Request { return Request{Class: ClassGroup, Size: 64 << 10, Call: call} }

	// The probe window walks the candidates in order.
	if d := m.Decide(q(0)); d.Path != datapath.KindCrossGVMI || d.Reason != "probe" {
		t.Fatalf("call 0: %+v", d)
	}
	m.Observe(q(0), datapath.KindCrossGVMI, sim.Time(100))
	if d := m.Decide(q(1)); d.Path != datapath.KindStaged || d.Reason != "probe" {
		t.Fatalf("call 1: %+v", d)
	}
	m.Observe(q(1), datapath.KindStaged, sim.Time(50))

	// First post-probe call freezes on the cheapest observed mean...
	if d := m.Decide(q(2)); d.Path != datapath.KindStaged || d.Reason != "learned" {
		t.Fatalf("call 2: %+v", d)
	}
	// ...and later observations no longer change the choice.
	m.Observe(q(3), datapath.KindCrossGVMI, sim.Time(1))
	if d := m.Decide(q(3)); d.Path != datapath.KindStaged {
		t.Fatalf("frozen choice moved: %+v", d)
	}
}

func TestMeasuringTieAndMissingObservations(t *testing.T) {
	// Full tie keeps the first candidate (cross-GVMI).
	m := NewMeasuring()
	q := Request{Class: ClassGroup, Size: 4 << 10}
	m.Observe(Request{Class: ClassGroup, Size: 4 << 10, Call: 0}, datapath.KindCrossGVMI, 70)
	m.Observe(Request{Class: ClassGroup, Size: 4 << 10, Call: 1}, datapath.KindStaged, 70)
	q.Call = 2
	if d := m.Decide(q); d.Path != datapath.KindCrossGVMI {
		t.Fatalf("tie broke to %v, want cross-GVMI", d.Path)
	}

	// No observations at all (caller never fed costs back): still a valid,
	// deterministic choice.
	m2 := NewMeasuring()
	if d := m2.Decide(Request{Class: ClassGroup, Size: 8, Call: 5}); !d.Path.Valid() {
		t.Fatalf("unobserved freeze chose invalid path %v", d.Path)
	}
}

func TestMeasuringP2PFallsBackToAdaptive(t *testing.T) {
	m := NewMeasuring()
	for _, q := range []Request{
		{Class: ClassP2P, Size: 4 << 10},
		{Class: ClassP2P, Size: 1 << 20},
		{Class: ClassOneSided, Size: 1 << 20},
	} {
		if got, want := m.Decide(q), sizeRule(q, SmallMsgCutoff); got != want {
			t.Errorf("Measuring.Decide(%+v) = %+v, want adaptive %+v", q, got, want)
		}
	}
}

func TestEngineRecordsDecisions(t *testing.T) {
	reg := metrics.NewRegistry()
	e := NewEngine(Adaptive{}, reg)
	e.Decide(Request{Class: ClassGroup, Size: 1 << 20})
	e.Decide(Request{Class: ClassGroup, Size: 1 << 20})
	e.Decide(Request{Class: ClassP2P, Size: 8})
	if v := reg.Counter("policy", "adaptive", "decide_gvmi").Value(); v != 2 {
		t.Fatalf("decide_gvmi = %d, want 2", v)
	}
	if v := reg.Counter("policy", "adaptive", "decide_hostdirect").Value(); v != 1 {
		t.Fatalf("decide_hostdirect = %d, want 1", v)
	}
	if v := reg.Counter("policy", "adaptive", "reason_group-direct").Value(); v != 2 {
		t.Fatalf("reason_group-direct = %d, want 2", v)
	}

	// A nil registry records nothing but still decides.
	e2 := NewEngine(Adaptive{}, nil)
	if d := e2.Decide(Request{Class: ClassOneSided}); d.Path != datapath.KindCrossGVMI {
		t.Fatalf("nil-registry engine decision: %+v", d)
	}
}
