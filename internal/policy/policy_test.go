package policy

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/metrics"
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
