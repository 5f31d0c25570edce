package bench

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// The generated snapshot must carry the pinned guard timings — and so must
// the checked-in file, which TestBaselines holds byte-identical to it — and
// round-trip through the JSON writer/parser unchanged.
func TestFig13SnapshotMatchesPinnedGuards(t *testing.T) {
	t.Parallel()
	snap := Fig13Snapshot(SweepEnv{})
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	assertGuardSeries(t, snap)
	for _, layer := range []string{"fabric", "verbs", "regcache", "core"} {
		if !snap.Metrics.Has(layer) {
			t.Errorf("snapshot metrics missing %s layer", layer)
		}
	}

	data, err := encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parse[BenchSnapshot](data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatal("snapshot did not round-trip through JSON")
	}
}

// assertGuardSeries checks the three headline points against the guard
// constants from chaos_test.go.
func assertGuardSeries(t *testing.T, snap BenchSnapshot) {
	t.Helper()
	want := []struct {
		size          int
		backed        bool
		pure, overall sim.Time
	}{
		{8 << 10, false, guardPure8K, guardOverall8K},
		{64 << 10, false, guardPure64K, guardOverall64K},
		{4 << 10, true, guardPure4KBacked, guardOverall4KBacked},
	}
	if len(snap.Series) != len(want) {
		t.Fatalf("snapshot has %d series, want %d", len(snap.Series), len(want))
	}
	for i, w := range want {
		p := snap.Series[i]
		if p.Size != w.size || p.Backed != w.backed {
			t.Fatalf("series[%d] is size=%d backed=%v, want %d/%v", i, p.Size, p.Backed, w.size, w.backed)
		}
		if p.PureNS != int64(w.pure) || p.OverallNS != int64(w.overall) {
			t.Fatalf("series[%d] pure=%d overall=%d, want %d/%d (regenerate with `make snap-fig13` if intended)",
				i, p.PureNS, p.OverallNS, w.pure, w.overall)
		}
	}
}
