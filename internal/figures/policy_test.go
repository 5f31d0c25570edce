package figures

import (
	"bytes"
	"testing"

	"repro/internal/bench"
)

// The acceptance bar of the policy ablation: at every swept size the
// adaptive policy matches or beats the best fixed datapath on overall
// (overlapped) time — it may tie (it picks one of the fixed paths), it
// must never lose. The feedback arm carries the bar it can actually
// promise: it probes, freezes on the cheapest *observed comm cost*, and
// in a static single-tenant world never drifts — so its steady-state pure
// latency must tie the best fixed path (2% tolerance for cache state the
// probe epoch leaves behind). It makes no overlap promise: issue-to-wait
// cost cannot see how much compute hides behind a path. Warmup is 4 so
// all three feedback probes plus the freeze land before the measured
// iterations.
func TestAdaptiveNeverLosesToFixedPaths(t *testing.T) {
	t.Parallel()
	fixed := []string{"gvmi", "staged", "bluesmpi", "hostdirect"}
	learned := []string{"adaptive", "feedback"}
	sizes := []int{8 << 10, 32 << 10, 128 << 10}
	arms := append(append([]string{}, learned...), fixed...)
	res := make([]bench.NBCResult, len(sizes)*len(arms))
	bench.SweepEnv{Parallel: 4}.Sweep(len(res), func(j int, env bench.SweepEnv) {
		size := sizes[j/len(arms)]
		pol := arms[j%len(arms)]
		res[j] = bench.MeasureIalltoall(env.Attach(bench.Options{
			Nodes: 4, PPN: 8, Scheme: pol,
		}), size, 4, 1)
	})
	for i, size := range sizes {
		adaptive := res[i*len(arms)].Overall
		feedback := res[i*len(arms)+1].PureComm
		for f := len(learned); f < len(arms); f++ {
			if other := res[i*len(arms)+f].Overall; adaptive > other {
				t.Errorf("size %d: adaptive %v loses to %s %v",
					size, adaptive, arms[f], other)
			}
			if pure := res[i*len(arms)+f].PureComm; feedback*100 > pure*102 {
				t.Errorf("size %d: feedback pure %v loses to %s pure %v",
					size, feedback, arms[f], pure)
			}
		}
	}
}

// The policy ablation table must render byte-identically at any sweep
// worker count (the determinism contract every figure sweep carries).
func TestPolicyAblationDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	render := func(workers int) string {
		var buf bytes.Buffer
		PolicyAblation(bench.SweepEnv{Parallel: workers}, 2, 2, []int{8 << 10, 32 << 10}, 1, 1, "").Fprint(&buf)
		return buf.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial != parallel {
		t.Fatalf("policy ablation diverges between worker counts:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("empty rendering")
	}
}
