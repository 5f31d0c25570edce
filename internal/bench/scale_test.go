package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// The checked-in scaling baseline (whose fig-shape claims TestBaselines
// validates) must be the full sweep: it actually reaches 1024 ranks.
func TestCheckedInScaleSnapshotValid(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_scale.json"))
	if err != nil {
		t.Fatalf("missing scale baseline (run `make snap-scale`): %v", err)
	}
	s, err := parse[ScaleSnapshot](data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Figure != "scale" {
		t.Fatalf("baseline figure %q, want scale", s.Figure)
	}
	if last := s.Series[len(s.Series)-1].Ranks; last < 1024 {
		t.Fatalf("baseline tops out at %d ranks, want >= 1024", last)
	}
}

// Validate rejects the failure modes the scale baseline guards against:
// schema drift, a lost fig13 ordering, a collapsed overlap, and an
// advantage that shrinks with scale.
func TestScaleValidateRejects(t *testing.T) {
	t.Parallel()
	mk := func() ScaleSnapshot {
		point := func(ranks int, propOverall int64, vsBlues float64) ScalePoint {
			return ScalePoint{
				Ranks: ranks, Nodes: ranks / 8, PPN: 8,
				Schemes: []ScaleSchemeResult{
					{Scheme: "BluesMPI", Timings: Timings{PureNS: 900, ComputeNS: 900, OverallNS: 2000, OverlapPct: 95}},
					{Scheme: "Proposed", Timings: Timings{PureNS: 800, ComputeNS: 800, OverallNS: propOverall, OverlapPct: 99}},
					{Scheme: "IntelMPI", Timings: Timings{PureNS: 850, ComputeNS: 850, OverallNS: 1500, OverlapPct: 40}},
				},
				VsBluesMPIPct: vsBlues, VsIntelMPIPct: 30,
			}
		}
		return ScaleSnapshot{
			Schema: ScaleSchema, Figure: "scale",
			Config: ScaleConfig{PPN: 8, Size: 32 << 10, Warmup: 1, Iters: 1, Ranks: []int{128, 1024}},
			Series: []ScalePoint{point(128, 1000, 50), point(1024, 1000, 50)},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := map[string]func(*ScaleSnapshot){
		"schema":          func(s *ScaleSnapshot) { s.Schema = "offload-scale/v0" },
		"figure":          func(s *ScaleSnapshot) { s.Figure = "" },
		"shape mismatch":  func(s *ScaleSnapshot) { s.Series[1].Nodes = 64 },
		"ordering lost":   func(s *ScaleSnapshot) { s.Series[1].Schemes[1].OverallNS = 2500 },
		"overlap shape":   func(s *ScaleSnapshot) { s.Series[1].Schemes[1].OverlapPct = 80 },
		"overlap vs host": func(s *ScaleSnapshot) { s.Series[1].Schemes[2].OverlapPct = 99.5 },
		"shrinking gain":  func(s *ScaleSnapshot) { s.Series[1].VsBluesMPIPct = 40 },
		"missing point":   func(s *ScaleSnapshot) { s.Series = s.Series[:1] },
		"bad timings":     func(s *ScaleSnapshot) { s.Series[0].Schemes[0].OverallNS = 0 },
	}
	for name, mutate := range cases {
		s := mk()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: corrupted snapshot validated", name)
		}
	}
}

// A two-point sweep reports the footprint of its larger shape: the bytes
// allocated while only that shape's runs ran, per run and (rank, peer)
// pair, and the process's peak RSS where /proc/self/status is there.
func TestScaleFootprint(t *testing.T) {
	t.Parallel()
	cfg := ScaleConfig{PPN: 2, Size: 1 << 10, Warmup: 1, Iters: 1, Ranks: []int{4, 8}}
	snap, fp := MeasureScale(SweepEnv{}, cfg)
	if len(snap.Series) != 2 || fp.Ranks != 8 || fp.BytesPerPair <= 0 {
		t.Fatalf("%d points, footprint %+v: want 2 points and the bytes per pair of 8 ranks", len(snap.Series), fp)
	}
	if _, err := os.Stat("/proc/self/status"); err == nil && fp.PeakRSSMB <= 0 {
		t.Errorf("footprint %+v: no peak RSS, though /proc/self/status is there", fp)
	}
	t.Log(fp)
}
