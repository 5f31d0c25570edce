package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/metrics"
)

// BenchSchema is the schema tag of perf-regression snapshot files
// (BENCH_fig13.json); bump it when the layout changes incompatibly.
const BenchSchema = "offload-bench/v1"

// BenchPoint is one measured configuration of the snapshot's figure.
type BenchPoint struct {
	Size   int  `json:"size"`
	Backed bool `json:"backed"`
	Timings
}

// BenchConfig records the environment the series was measured under.
type BenchConfig struct {
	Nodes  int    `json:"nodes"`
	PPN    int    `json:"ppn"`
	Warmup int    `json:"warmup"`
	Iters  int    `json:"iters"`
	Scheme string `json:"scheme"`
}

// BenchSnapshot is the checked-in perf-regression baseline: the headline
// virtual timings of a figure plus the full metrics snapshot of the runs
// that produced them. Timings are deterministic, so any diff against the
// checked-in file is a real behaviour change.
type BenchSnapshot struct {
	Schema  string           `json:"schema"`
	Figure  string           `json:"figure"`
	Config  BenchConfig      `json:"config"`
	Series  []BenchPoint     `json:"series"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// fig13SnapshotPoints are the measured configurations, chosen to match the
// pinned guard constants in chaos_test.go so the snapshot and the test
// suite can never drift apart silently.
var fig13SnapshotPoints = []struct {
	size   int
	backed bool
}{
	{8 << 10, false},
	{64 << 10, false},
	{4 << 10, true},
}

// The fig13 guard shape.
const fig13Nodes, fig13PPN, fig13Warmup, fig13Iters = 2, 4, 1, 2

// Fig13Snapshot measures the fig13 guard configurations (Proposed scheme,
// 2 nodes x 4 PPN, warmup 1, iters 2) with a live metrics registry attached
// and packages timings plus metrics into a BenchSnapshot.
func Fig13Snapshot(env SweepEnv) BenchSnapshot {
	env.Met = metrics.NewRegistry()
	s := BenchSnapshot{
		Schema: BenchSchema,
		Figure: "fig13",
		Config: BenchConfig{Nodes: fig13Nodes, PPN: fig13PPN, Warmup: fig13Warmup, Iters: fig13Iters,
			Scheme: baseline.NameProposed},
	}
	s.Series = make([]BenchPoint, len(fig13SnapshotPoints))
	env.Sweep(len(s.Series), func(i int, env SweepEnv) {
		s.Series[i] = measureFig13Point(env, i, "")
	})
	s.Metrics = env.Met.Snapshot()
	return s
}

// measureFig13Point measures guard configuration i on the named device
// profile ("" = the default part).
func measureFig13Point(env SweepEnv, i int, dev string) BenchPoint {
	pt := fig13SnapshotPoints[i]
	opt := env.Attach(Options{Nodes: fig13Nodes, PPN: fig13PPN, Scheme: baseline.NameProposed,
		Backed: pt.backed, Device: dev})
	return BenchPoint{Size: pt.size, Backed: pt.backed,
		Timings: timingsOf(MeasureIalltoall(opt, pt.size, fig13Warmup, fig13Iters))}
}

// Validate checks schema conformance of the snapshot and of the embedded
// metrics section.
func (s BenchSnapshot) Validate() error {
	if s.Schema != BenchSchema {
		return fmt.Errorf("bench: schema %q, want %q", s.Schema, BenchSchema)
	}
	if s.Figure == "" {
		return fmt.Errorf("bench: snapshot has no figure name")
	}
	if s.Config.Nodes <= 0 || s.Config.PPN <= 0 || s.Config.Iters <= 0 || s.Config.Scheme == "" {
		return fmt.Errorf("bench: incomplete config %+v", s.Config)
	}
	if len(s.Series) == 0 {
		return fmt.Errorf("bench: snapshot has no series")
	}
	for i, p := range s.Series {
		if p.Size <= 0 {
			return fmt.Errorf("bench: series[%d] size %d", i, p.Size)
		}
		if err := p.plausible(); err != nil {
			return fmt.Errorf("bench: series[%d]: %w", i, err)
		}
	}
	return s.Metrics.Validate()
}
