package policy

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/metrics"
	"repro/internal/sim"
)

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

// The size rules are static: feedback an engine hands them, however bad the
// observed cost of the path they chose, leaves their next decision as it was.
func TestStaticPoliciesIgnoreObservations(t *testing.T) {
	for _, p := range []Policy{Adaptive{}, Aware{}} {
		e := NewEngine(p, nil)
		for _, q := range []Request{
			{Class: ClassGroup, Size: SmallMsgCutoff},
			{Class: ClassGroup, Size: 1 << 20},
			{Class: ClassP2P, Size: 1 << 20},
		} {
			before := e.Decide(q)
			for call := 0; call < 8; call++ {
				q.Call = call
				e.Observe(q, before.Path, sim.Second)
			}
			if after := e.Decide(q); after != before {
				t.Errorf("%s: %+v decided %+v, then %+v after slow observations", p.Name(), q, before, after)
			}
		}
	}
}
