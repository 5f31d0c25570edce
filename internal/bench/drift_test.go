package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tenant"
)

// The drift baseline (which TestBaselines holds byte-identical to a fresh
// measurement at -parallel 1 and 4) must carry its headline re-route claim
// and keep the foreground ranks in lockstep across re-probes.
func TestDriftSnapshotValidDeterministicAndParallel(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_drift.json"))
	if err != nil {
		t.Fatalf("missing drift baseline (run `make snap-drift`): %v", err)
	}
	snap, err := parse[DriftSnapshot](data)
	if err != nil {
		t.Fatal(err)
	}

	// Rank agreement across re-probes: every rank of the foreground job
	// contributes one decision per call, so with lockstep intact each call
	// adds the full rank count to exactly one per-path counter — any
	// diverged rank shows up as a remainder.
	np := int64(snap.Config.Nodes * snap.Config.PPN)
	checked := 0
	for _, c := range snap.Metrics.Counters {
		if c.Layer != "policy" || c.Tenant != "fg" || !strings.HasPrefix(c.Name, "decide_") {
			continue
		}
		checked++
		if c.Value%np != 0 {
			t.Errorf("decide counter %s/%s = %d not divisible by %d ranks (lockstep broken)",
				c.Entity, c.Name, c.Value, np)
		}
	}
	if checked == 0 {
		t.Fatal("no foreground decide counters in the snapshot metrics")
	}
}

// Windowing around the drift: iterations that complete before arrival are
// "pre", iterations that start after arrival+settle are "post", and
// transition iterations spanning either boundary belong to neither.
func TestSplitDriftWindows(t *testing.T) {
	t.Parallel()
	samples := []struct{ at, dur int64 }{
		{900, 100},   // ends exactly at arrival: pre
		{1100, 300},  // spans the arrival: neither
		{8900, 100},  // post window not yet open (starts before 9000): neither
		{9100, 100},  // starts exactly at arrival+settle: post
		{9500, 200},  // post
		{10000, 100}, // post
	}
	in := make([]tenant.IterSample, 0, len(samples))
	for _, s := range samples {
		in = append(in, tenant.IterSample{At: sim.Time(s.at), Dur: sim.Time(s.dur)})
	}
	pre, post := SplitDrift(in, 1000, 8000)
	if len(pre) != 1 || pre[0] != 100 {
		t.Fatalf("pre window %v, want [100]", pre)
	}
	if len(post) != 3 {
		t.Fatalf("post window %v, want 3 samples", post)
	}
	for i := 1; i < len(post); i++ {
		if post[i-1] > post[i] {
			t.Fatalf("post window not sorted: %v", post)
		}
	}
	// Nearest-rank with floor indexing (the tenant layer's convention):
	// over [100 100 200], p50 and p99 floor to the middle sample and only
	// p100 reaches the maximum.
	if Percentile(post, 50) != 100 || Percentile(post, 99) != 100 || Percentile(post, 100) != 200 {
		t.Fatalf("percentiles p50=%v p99=%v p100=%v, want 100/100/200",
			Percentile(post, 50), Percentile(post, 99), Percentile(post, 100))
	}
	if Percentile(nil, 99) != 0 {
		t.Fatal("empty percentile must be 0")
	}
}
