package bench

import (
	"testing"

	"repro/internal/metrics"
)

// Zero-overhead guard (live side): attaching a live metrics registry must
// not move any virtual timestamp — the fig13 timings stay bit-identical to
// the pinned seed constants while the registry fills with series from every
// instrumented layer.
func TestMetricsLiveRegistryMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	met := metrics.NewRegistry()
	opt := guardOpt()
	opt.Metrics = met
	r := MeasureIalltoall(opt, 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved under live metrics: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	r = MeasureIalltoall(opt, 65536, 1, 2)
	if r.PureComm != guardPure64K || r.Overall != guardOverall64K {
		t.Fatalf("64K timings moved under live metrics: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure64K, guardOverall64K)
	}
	bopt := opt
	bopt.Backed = true
	r = MeasureIalltoall(bopt, 4096, 1, 2)
	if r.PureComm != guardPure4KBacked || r.Overall != guardOverall4KBacked {
		t.Fatalf("backed 4K timings moved under live metrics: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure4KBacked, guardOverall4KBacked)
	}

	snap := met.Snapshot()
	for _, layer := range []string{"fabric", "verbs", "regcache", "core"} {
		if !snap.Has(layer) {
			t.Errorf("no %s series recorded", layer)
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	var tx int64
	for _, c := range snap.Counters {
		if c.Layer == "fabric" && c.Name == "msgs_tx" {
			tx += c.Value
		}
	}
	if tx == 0 {
		t.Fatal("no fabric traffic counted across three runs")
	}
}

// Zero-overhead guard (nil side): explicitly passing no registry takes the
// untouched fast paths and reproduces the same constants. This is the
// configuration TestFig13TimingsBitIdenticalToSeed exercises implicitly;
// here the nil is explicit so a future non-nil default cannot slip in.
func TestMetricsNilRegistryMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	opt := guardOpt()
	opt.Metrics = nil
	r := MeasureIalltoall(opt, 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
}

// A SweepEnv's registry is how offloadbench attaches -metrics: Attach must
// route it into the environment, and timings must stay pinned.
func TestAttachFillsMetrics(t *testing.T) {
	t.Parallel()
	met := metrics.NewRegistry()
	r := MeasureIalltoall(SweepEnv{Met: met}.Attach(guardOpt()), 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("timings moved under an env registry: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	if !met.Snapshot().Has("fabric") {
		t.Fatal("the env's registry recorded nothing")
	}
}
