package figures

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/sim"
)

// Drift runs the mid-run drift scenario: a latency-bound foreground job
// (overlapped compute, where offload wins) under each offload policy,
// with chatty background tenants arriving mid-run and saturating the
// single shared proxy ARM worker per node. The table contrasts pre- and
// post-arrival foreground latency: fixed gvmi and the frozen measure
// policy stay stuck on the saturated proxy while the feedback policy
// re-probes and re-routes to host-direct.
func Drift(env bench.SweepEnv, nodes, ppn, fgIters int) *bench.Table {
	t := &bench.Table{
		Title: fmt.Sprintf("Drift: fg latency before/after background arrival, %d nodes x %d PPN/job, 1 FIFO proxy/DPU",
			nodes, ppn),
		Headers: []string{"FG policy", "Pre p50 (us)", "Pre p99 (us)", "Post p50 (us)", "Post p99 (us)", "Reprobes"},
	}
	for _, p := range bench.DriftSeries(env, nodes, ppn, fgIters) {
		t.AddRow(p.FgPolicy,
			bench.F2(sim.Time(p.PreP50N).Micros()),
			bench.F2(sim.Time(p.PreP99N).Micros()),
			bench.F2(sim.Time(p.PostP50N).Micros()),
			bench.F2(sim.Time(p.PostP99N).Micros()),
			fmt.Sprintf("%d", p.Reprobes))
	}
	t.Notes = append(t.Notes,
		"pre-drift: gvmi wins the overlapped-compute foreground; post-drift: frozen measure stays on the saturated proxy while feedback re-probes to hostdirect",
		"windows: pre = completed before background arrival, post = started after arrival + settle (see internal/bench DriftArrival/DriftSettle)")
	return t
}

// driftAttribLayers is the attribution table's fixed layer column order
// (descending the stack from the collective API to the wire); layers
// outside the list fold into the "other" column.
var driftAttribLayers = []string{"coll", "mpi", "core", "verbs", "fabric"}

// DriftAttributionTable renders phase-by-phase critical-path decompositions
// (bench.AttributeDrift) as one table: per policy and phase, where the
// foreground collective's time went per layer, joined with the flight
// recorder's re-probe / proxy-backlog / SLO counters over the same window.
// Pure rendering — callers produce the attributions.
func DriftAttributionTable(atts []bench.DriftAttribution) *bench.Table {
	headers := []string{"FG policy", "Phase", "Roots", "p50 (us)", "p99 (us)", "Total (ms)"}
	for _, l := range driftAttribLayers {
		headers = append(headers, l+" %")
	}
	headers = append(headers, "other %", "Reprobes", "Max queue", "SLO viol")
	t := &bench.Table{
		Title:   "Drift attribution: fg collective critical-path time per layer, by phase",
		Headers: headers,
	}
	pct := func(part, total sim.Time) string {
		if total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", 100*float64(part)/float64(total))
	}
	for _, a := range atts {
		for _, p := range a.Phases {
			byLayer := map[string]sim.Time{}
			for _, r := range p.Rows {
				byLayer[r.Layer] += r.Time
			}
			row := []string{a.Policy, p.Phase, fmt.Sprintf("%d", p.Roots),
				bench.F2(p.P50.Micros()), bench.F2(p.P99.Micros()), bench.F2(p.Total.Millis())}
			var known sim.Time
			for _, l := range driftAttribLayers {
				known += byLayer[l]
				row = append(row, pct(byLayer[l], p.Total))
			}
			row = append(row, pct(p.Total-known, p.Total),
				fmt.Sprintf("%d", p.Reprobes),
				fmt.Sprintf("%.0f", p.MaxQueueDepth),
				fmt.Sprintf("%d", p.SLOViolations))
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"per-layer columns decompose the summed fg collective critical paths of each phase (they sum to 100% by the tiling invariant)",
		"reprobes / max queue / SLO violations come from the virtual-time flight recorder over the same phase window",
		"phases: pre = before background arrival, degraded = arrival..settle (re-probe happens here), post = steady state after settle")
	return t
}

// DriftAttribution runs the drift scenario for the frozen measure policy
// and the feedback policy with span tracing and a flight recorder attached,
// and renders the attribution table — the "why" behind the Drift table's
// re-route win: post-drift, measure's collective time concentrates in the
// saturated proxy layers while feedback's moves back to the host path.
func DriftAttribution(env bench.SweepEnv, nodes, ppn, fgIters int) *bench.Table {
	atts, _, err := bench.MeasureDriftAttribution(env, nodes, ppn, fgIters)
	if err != nil {
		panic(fmt.Sprintf("figures: drift attribution: %v", err))
	}
	return DriftAttributionTable(atts)
}
