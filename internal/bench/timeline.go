package bench

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/tenant"
)

// DriftSLOObjective is the foreground latency objective the timeline runs
// track. Pre-drift foreground iterations complete in 61–97µs at the median
// (objective met) and post-drift in 744µs or more (violated), so 200µs
// separates the phases with wide margins on both sides.
const DriftSLOObjective = 200 * sim.Microsecond

// DriftWidth is the bucket width of drift timelines, twice the default:
// the slowest policy's ~425ms run then closes at most 4 252 buckets per
// series, and both phase boundaries (1ms arrival, 9ms settle end) stay on
// the grid.
const DriftWidth = 100 * sim.Microsecond

// DriftRun is one foreground policy's drift-scenario run with its flight
// recorder (and, when requested, its span collector) still attached for
// querying.
type DriftRun struct {
	Policy string
	Res    *tenant.Result
	Rec    *metrics.Recorder
	// Spans is non-nil only for policies the caller requested tracing for;
	// a private collector per run keeps the sweep parallel-safe.
	Spans *span.Collector
}

// CollectDriftTimelines runs the drift scenario once per foreground policy
// with a recorder attached (at DriftWidth) and the foreground
// job tracking DriftSLOObjective, distributing runs through the sweep runner
// — recorded series are byte-identical at any -parallel value because every
// run owns a private registry, recorder, and (optionally) span collector.
// Per-run metrics still merge into env.Met, so -metrics snapshots keep
// working.
func CollectDriftTimelines(env SweepEnv, nodes, ppn, fgIters int, policies []string, spansFor map[string]bool) []DriftRun {
	runs := make([]DriftRun, len(policies))
	env.Sweep(len(runs), func(i int, env SweepEnv) {
		pol := policies[i]
		met := metrics.NewRegistry()
		rec := metrics.NewRecorder(pol, DriftWidth)
		cfg := DriftCase(nodes, ppn, fgIters, pol)
		cfg.Jobs[0].SLO = DriftSLOObjective
		cfg.Metrics = met
		cfg.Timeline = rec
		if spansFor[pol] {
			cfg.Spans = span.New(0)
		}
		res, err := tenant.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: drift timeline policy=%s: %v", pol, err))
		}
		if env.Met != nil {
			env.Met.Merge(met)
		}
		runs[i] = DriftRun{Policy: pol, Res: res, Rec: rec, Spans: cfg.Spans}
	})
	return runs
}

// DriftPhases names the three windows the drift scenario decomposes into.
var DriftPhases = []string{"pre", "degraded", "post"}

// DriftPhaseAttribution decomposes one phase of one policy's run: where the
// foreground collective's critical-path time went (per layer/class/name),
// joined with the flight recorder's view of the same window (re-probe
// decisions, proxy backlog, SLO violations).
type DriftPhaseAttribution struct {
	Phase    string
	From, To sim.Time // virtual-time window [From, To)

	// Roots is the number of measured foreground collective roots whose
	// execution fell inside the window; Total sums their latencies, which
	// equals the summed Rows time by the critical path's tiling invariant
	// (AttributeDrift validates the equality).
	Roots int
	Total sim.Time
	// P50/P99 are latency percentiles over the phase's roots.
	P50, P99 sim.Time
	// Rows is the per-(layer, class, name) critical-path decomposition.
	Rows []span.AttribRow

	// Reprobes is the foreground engine's re-probe decisions inside the
	// window (from the recorder's policy counter series).
	Reprobes int64
	// MaxQueueDepth is the deepest proxy backlog sampled in the window.
	MaxQueueDepth float64
	// SLOViolations counts foreground iterations over DriftSLOObjective
	// inside the window.
	SLOViolations int64
}

// DriftAttribution is one policy's full phase-by-phase decomposition.
type DriftAttribution struct {
	Policy string
	Phases []DriftPhaseAttribution
}

// Phase returns a phase by name (nil if absent).
func (a *DriftAttribution) Phase(name string) *DriftPhaseAttribution {
	for i := range a.Phases {
		if a.Phases[i].Phase == name {
			return &a.Phases[i]
		}
	}
	return nil
}

// driftPhaseWindow returns the [from, to) window of one phase. The post
// phase ends at the foreground job's finish so its recorder queries don't
// sample the background-only tail of the run.
func driftPhaseWindow(phase string, fgFinish sim.Time) (sim.Time, sim.Time) {
	switch phase {
	case "pre":
		return 0, DriftArrival
	case "degraded":
		return DriftArrival, DriftArrival + DriftSettle
	default:
		return DriftArrival + DriftSettle, fgFinish
	}
}

// driftPhaseOf assigns one collective root to a phase by the same windowing
// SplitDrift applies to iteration samples: roots that completed before the
// arrival are "pre", roots that began after the settle grace are "post",
// and anything spanning a boundary is the transition — "degraded".
func driftPhaseOf(s span.Span) string {
	switch {
	case s.End <= DriftArrival:
		return "pre"
	case s.Begin >= DriftArrival+DriftSettle:
		return "post"
	default:
		return "degraded"
	}
}

// AttributeDrift joins one run's span trace with its flight recorder: the
// measured foreground collective roots are split into the drift phases,
// each phase's critical paths are aggregated per layer, and the recorder
// contributes what the counters did over the same virtual-time window. The
// error path trips when the trace is missing or when a phase's per-layer
// segments fail to sum to its summed root latencies (the critical-path
// tiling invariant — any gap means the decomposition lost time).
func AttributeDrift(run DriftRun) (DriftAttribution, error) {
	a := DriftAttribution{Policy: run.Policy}
	if run.Spans == nil {
		return a, fmt.Errorf("bench: drift attribution for %s: run has no span trace", run.Policy)
	}
	roots := run.Spans.RootsNamed("coll", "ialltoall")
	if len(roots) == 0 {
		return a, fmt.Errorf("bench: drift attribution for %s: no foreground collective roots", run.Policy)
	}

	// Skip each rank's warmup iterations so the phases aggregate exactly
	// the measured samples BENCH_drift.json reports. Roots are in creation
	// order, so per-entity counting is deterministic.
	seen := map[string]int{}
	byPhase := map[string][]span.ID{}
	durs := map[string][]sim.Time{}
	for _, id := range roots {
		s, ok := run.Spans.Get(id)
		if !ok || !s.Ended {
			continue
		}
		n := seen[s.Entity]
		seen[s.Entity] = n + 1
		if n < driftFgWarmup {
			continue
		}
		ph := driftPhaseOf(s)
		byPhase[ph] = append(byPhase[ph], id)
		durs[ph] = append(durs[ph], s.Dur())
	}

	fg := run.Res.Job("fg")
	for _, ph := range DriftPhases {
		from, to := driftPhaseWindow(ph, fg.Finish)
		pa := DriftPhaseAttribution{Phase: ph, From: from, To: to}
		ids := byPhase[ph]
		pa.Roots = len(ids)
		pa.Rows = run.Spans.Attribution(ids)
		var rowSum sim.Time
		for _, r := range pa.Rows {
			rowSum += r.Time
		}
		ds := durs[ph]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		for _, d := range ds {
			pa.Total += d
		}
		pa.P50 = metrics.Percentile(ds, 50)
		pa.P99 = metrics.Percentile(ds, 99)
		if rowSum != pa.Total {
			return a, fmt.Errorf("bench: drift attribution for %s, phase %s: per-layer segments sum to %s, roots to %s",
				run.Policy, ph, rowSum, pa.Total)
		}
		pa.Reprobes = run.Rec.CounterIncrease("policy", run.Policy, "reason_reprobe", "fg", from, to)
		pa.SLOViolations = run.Rec.CounterIncrease("slo", "latency", "violations", "fg", from, to)
		pa.MaxQueueDepth, _ = run.Rec.MaxGaugeRange("core", "queue_depth", from, to)
		a.Phases = append(a.Phases, pa)
	}
	return a, nil
}

// MeasureDriftAttribution runs the drift scenario at the checked-in
// BENCH_drift.json shape for the two policies whose gap is the re-route win
// — the frozen measure policy and the feedback policy — with span tracing
// on, and attributes both. The returned runs keep their recorders for
// export.
func MeasureDriftAttribution(env SweepEnv, nodes, ppn, fgIters int) ([]DriftAttribution, []DriftRun, error) {
	policies := []string{"measure", "feedback"}
	spansFor := map[string]bool{"measure": true, "feedback": true}
	runs := CollectDriftTimelines(env, nodes, ppn, fgIters, policies, spansFor)
	out := make([]DriftAttribution, len(runs))
	for i, run := range runs {
		a, err := AttributeDrift(run)
		if err != nil {
			return nil, runs, err
		}
		out[i] = a
	}
	return out, runs, nil
}
