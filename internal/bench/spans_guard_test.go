package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/span"
)

// Zero-overhead guard (live side): attaching a live span collector must not
// move any virtual timestamp — the fig13 timings stay bit-identical to the
// pinned seed constants while the collector fills with spans from every
// instrumented layer.
func TestSpansLiveCollectorMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	opt := guardOpt()
	sc, r := CollectSpans(opt, 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved under live spans: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	sc64, r64 := CollectSpans(opt, 65536, 1, 2)
	if r64.PureComm != guardPure64K || r64.Overall != guardOverall64K {
		t.Fatalf("64K timings moved under live spans: pure=%d overall=%d, want %d/%d",
			r64.PureComm, r64.Overall, guardPure64K, guardOverall64K)
	}
	bopt := opt
	bopt.Backed = true
	scb, rb := CollectSpans(bopt, 4096, 1, 2)
	if rb.PureComm != guardPure4KBacked || rb.Overall != guardOverall4KBacked {
		t.Fatalf("backed 4K timings moved under live spans: pure=%d overall=%d, want %d/%d",
			rb.PureComm, rb.Overall, guardPure4KBacked, guardOverall4KBacked)
	}

	for _, c := range []*span.Collector{sc, sc64, scb} {
		if c.Len() == 0 {
			t.Fatal("live collector recorded no spans")
		}
		if len(c.RootsNamed("coll", "ialltoall")) == 0 {
			t.Error("no coll/ialltoall root spans recorded")
		}
		layers := map[string]bool{}
		for _, s := range c.Spans() {
			layers[s.Layer] = true
		}
		for _, l := range []string{"coll", "core", "verbs", "fabric"} {
			if !layers[l] {
				t.Errorf("no %s-layer spans recorded", l)
			}
		}
	}
}

// The fault-free span record is frozen: the JSONL of the pinned fig13 shape
// hashes to the value captured before fault events moved onto the span
// stream, so nothing but injected faults ever adds (or reorders) a span.
func TestSpansFaultFreeJSONLFrozen(t *testing.T) {
	t.Parallel()
	const want = "24f525c59a39264acf594e25789b1373e008deac5363962b6ffb06af28e0eff5"
	sc, _ := CollectSpans(guardOpt(), 8192, 1, 2)
	h := sha256.New()
	if err := sc.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("fig13 span JSONL (%d spans) hashes to %s, want %s", sc.Len(), got, want)
	}
}

// Zero-overhead guard (nil side): explicitly passing no collector takes the
// untouched fast paths and reproduces the same constants, keeping fig13
// bit-identical to BENCH_fig13.json.
func TestSpansNilCollectorMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	opt := guardOpt()
	opt.Spans = nil
	r := MeasureIalltoall(opt, 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
}

// A SweepEnv's collector is how offloadbench attaches -spans: Attach must
// route it into the environment, and timings must stay pinned.
func TestAttachFillsSpans(t *testing.T) {
	t.Parallel()
	sc := span.New(0)
	r := MeasureIalltoall(SweepEnv{Sp: sc}.Attach(guardOpt()), 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("timings moved under an env collector: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	if sc.Len() == 0 {
		t.Fatal("the env's collector recorded nothing")
	}
}

// The core guarantee of critical-path extraction: for every ended root span
// of a fig13 run, the path segments tile the root's window exactly — their
// durations sum to the root's end-to-end latency, nanosecond for nanosecond.
func TestCriticalPathSumsToRootLatencyFig13(t *testing.T) {
	t.Parallel()
	sc, _ := CollectSpans(guardOpt(), 8192, 1, 2)
	roots := sc.Roots()
	if len(roots) == 0 {
		t.Fatal("no root spans")
	}
	checked := 0
	for _, id := range roots {
		s, _ := sc.Get(id)
		if !s.Ended {
			continue
		}
		segs := sc.CriticalPath(id)
		if len(segs) == 0 {
			// Zero-duration roots (e.g. an eager intra-node isend that
			// completes at the instant it starts) tile trivially.
			if s.Dur() != 0 {
				t.Fatalf("root %d (%s/%s) has no critical path", id, s.Layer, s.Name)
			}
			checked++
			continue
		}
		var sum, cursor = sim.Time(0), s.Begin
		for i, seg := range segs {
			if seg.From != cursor {
				t.Fatalf("root %d segment %d starts at %d, want contiguous %d", id, i, seg.From, cursor)
			}
			if seg.To < seg.From {
				t.Fatalf("root %d segment %d negative [%d,%d)", id, i, seg.From, seg.To)
			}
			sum += sim.Time(seg.To - seg.From)
			cursor = seg.To
		}
		if cursor != s.End {
			t.Fatalf("root %d path ends at %d, want %d", id, cursor, s.End)
		}
		if sum != sim.Time(s.Dur()) {
			t.Fatalf("root %d (%s/%s): critical path sums to %d, latency is %d",
				id, s.Layer, s.Name, sum, s.Dur())
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no ended roots to check")
	}
}

// Span collection, analysis and formatting are deterministic: two identical
// runs produce byte-identical attribution tables, and the table contains
// the layers the collective's critical path passes through. This is the
// golden contract the critical-path subcommand prints.
func TestAttributionTableDeterministicGolden(t *testing.T) {
	t.Parallel()
	render := func() string {
		sc, _ := CollectSpans(guardOpt(), 8192, 1, 2)
		roots := sc.RootsNamed("coll", "ialltoall")
		if len(roots) == 0 {
			t.Fatal("no ialltoall roots")
		}
		rows := sc.Attribution(roots)
		var total sim.Time
		for _, id := range roots {
			s, _ := sc.Get(id)
			if s.Ended {
				total += sim.Time(s.Dur())
			}
		}
		return span.FormatAttribution(rows, total)
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("attribution table not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	for _, want := range []string{"coll", "core", "fabric", "group_exec", "wire", "total"} {
		if !strings.Contains(a, want) {
			t.Errorf("attribution table missing %q:\n%s", want, a)
		}
	}
}

// Chaos runs keep the causal record consistent: under fault injection every
// ended root still has an exactly-tiling critical path (retransmissions,
// failover control and fallback execution included).
func TestCriticalPathExactUnderChaos(t *testing.T) {
	t.Parallel()
	opt := Options{Nodes: 2, PPN: 4, Scheme: guardOpt().Scheme, Fault: fault.Scaled(7, 1e-3)}
	sc, res := CollectChaosSpans(opt, 1e-3, 8192, 1, 2)
	if !res.Verified {
		t.Fatalf("chaos run failed verification: %d mismatches", res.Mismatches)
	}
	for _, id := range sc.Roots() {
		s, _ := sc.Get(id)
		if !s.Ended {
			continue
		}
		var sum sim.Time
		for _, seg := range sc.CriticalPath(id) {
			sum += sim.Time(seg.To - seg.From)
		}
		if sum != sim.Time(s.Dur()) {
			t.Fatalf("chaos root %d (%s/%s): path sums to %d, latency is %d",
				id, s.Layer, s.Name, sum, s.Dur())
		}
	}
}
