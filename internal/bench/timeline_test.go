package bench

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// Zero-overhead guard (live side): a live flight recorder samples the
// registry on every bucket boundary of the run, and the fig13 timings must
// stay bit-identical to the pinned seed constants — the tick hook observes,
// never schedules.
func TestTimelineRecorderMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	met := metrics.NewRegistry()
	rec := metrics.NewRecorder("guard", metrics.DefaultWidth)
	opt := guardOpt()
	opt.Metrics = met
	opt.Timeline = rec
	r := MeasureIalltoall(opt, 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved under live recorder: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	r = MeasureIalltoall(opt, 65536, 1, 2)
	if r.PureComm != guardPure64K || r.Overall != guardOverall64K {
		t.Fatalf("64K timings moved under live recorder: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure64K, guardOverall64K)
	}
	// The recorder actually recorded: fabric counters became time series.
	found := false
	for _, s := range rec.Sorted() {
		if s.Key.Layer == "fabric" && s.Key.Name == "msgs_tx" && s.Kind == metrics.KindCounter {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("live recorder produced no fabric msgs_tx series")
	}
}

// Zero-overhead guard (nil side): an explicitly nil recorder takes the
// untouched fast paths and reproduces the same constants, so a future
// non-nil default cannot slip in.
func TestTimelineNilRecorderMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	opt := guardOpt()
	opt.Timeline = nil
	r := MeasureIalltoall(opt, 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
}

// A SweepEnv's recorder slice is how offloadbench attaches -timeseries:
// Attach must hand each environment a fresh recorder and keep it, and
// timings must stay pinned.
func TestAttachFillsTimeline(t *testing.T) {
	t.Parallel()
	env := SweepEnv{Met: metrics.NewRegistry(), Tl: new([]*metrics.Recorder)}
	r := MeasureIalltoall(env.Attach(guardOpt()), 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("timings moved under an env timeline: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	recs := *env.Tl
	if len(recs) != 1 {
		t.Fatalf("timeline tracked %d recorders, want 1 per environment", len(recs))
	}
	if len(recs[0].Sorted()) == 0 {
		t.Fatal("the environment's recorder recorded nothing")
	}
}

// Recorders export in creation order, so labels number the runs the same
// way: an empty label becomes "run<N>" by the recorder's index.
func TestTimelineLabelsRunsInCreationOrder(t *testing.T) {
	t.Parallel()
	env := SweepEnv{Tl: new([]*metrics.Recorder)}
	a, b, c := env.NewRecorder(""), env.NewRecorder("custom"), env.NewRecorder("")
	if a.Label != "run0" || b.Label != "custom" || c.Label != "run2" {
		t.Fatalf("labels = %q,%q,%q", a.Label, b.Label, c.Label)
	}
	if got := len(*env.Tl); got != 3 {
		t.Fatalf("env keeps %d recorders, want 3", got)
	}
	if (SweepEnv{}).NewRecorder("x") != nil {
		t.Fatal("an env without recorders handed out a live one")
	}
}

// Timeline exports must be byte-identical at any sweep worker count — the
// determinism contract every bench artifact carries. Each drift run owns a
// private registry and recorder, so the parallel runner cannot reorder or
// interleave samples.
func TestTimelineSweepParallelIdentical(t *testing.T) {
	t.Parallel()
	export := func(workers int) string {
		runs := CollectDriftTimelines(SweepEnv{Parallel: workers}, 2, 2, 10, []string{"measure", "feedback"}, nil)
		recs := make([]*metrics.Recorder, len(runs))
		for i := range runs {
			recs[i] = runs[i].Rec
		}
		var sb strings.Builder
		if err := metrics.WriteSeriesJSONL(&sb, recs...); err != nil {
			t.Fatal(err)
		}
		if err := metrics.WriteSeriesPrometheus(&sb, recs...); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial := export(1)
	parallel := export(4)
	if serial != parallel {
		t.Fatal("timeline exports diverge between worker counts")
	}
	if !strings.Contains(serial, `"run":"feedback"`) {
		t.Fatal("export is missing the feedback run's series")
	}
}

// The drift-attribution report must reproduce the BENCH_drift claims from
// first principles: per-phase critical paths that tile exactly (checked
// inside AttributeDrift), the feedback policy's re-probes landing in the
// degraded window, and the post-drift gap between the frozen measure
// policy and the re-routed feedback policy.
func TestDriftAttributionClaims(t *testing.T) {
	t.Parallel()
	atts, runs, err := MeasureDriftAttribution(SweepEnv{}, 2, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(atts) {
		t.Fatalf("%d runs for %d attributions", len(runs), len(atts))
	}
	byPolicy := map[string]DriftAttribution{}
	for _, a := range atts {
		byPolicy[a.Policy] = a
	}
	meas, ok := byPolicy["measure"]
	if !ok {
		t.Fatal("no attribution for measure")
	}
	fb, ok := byPolicy["feedback"]
	if !ok {
		t.Fatal("no attribution for feedback")
	}

	for _, a := range []DriftAttribution{meas, fb} {
		for _, ph := range DriftPhases {
			p := a.Phase(ph)
			if p == nil {
				t.Fatalf("%s: missing phase %s", a.Policy, ph)
			}
			if p.Roots == 0 {
				t.Fatalf("%s phase %s has no collective roots", a.Policy, ph)
			}
		}
		// Pre-drift the objective holds and the proxy is idle; degraded the
		// recorder sees the backlog explode over the same window.
		pre, deg := a.Phase("pre"), a.Phase("degraded")
		if pre.P99 > DriftSLOObjective {
			t.Fatalf("%s pre-drift p99 %v violates the %v objective", a.Policy, pre.P99, DriftSLOObjective)
		}
		if pre.SLOViolations != 0 {
			t.Fatalf("%s pre-drift has %d SLO violations", a.Policy, pre.SLOViolations)
		}
		if deg.MaxQueueDepth <= pre.MaxQueueDepth {
			t.Fatalf("%s degraded max queue %.0f not above pre %.0f",
				a.Policy, deg.MaxQueueDepth, pre.MaxQueueDepth)
		}
		if deg.SLOViolations == 0 {
			t.Fatalf("%s degraded window shows no SLO violations", a.Policy)
		}
	}

	// The re-probe is the degraded-phase event that explains the post-drift
	// gap: feedback re-probes there (and only there), measure never does.
	if got := fb.Phase("degraded").Reprobes; got < 1 {
		t.Fatalf("feedback re-probed %d times in the degraded phase, want >= 1", got)
	}
	if got := fb.Phase("pre").Reprobes; got != 0 {
		t.Fatalf("feedback re-probed %d times pre-drift", got)
	}
	for _, ph := range DriftPhases {
		if got := meas.Phase(ph).Reprobes; got != 0 {
			t.Fatalf("measure re-probed %d times in phase %s (freeze-once must not)", got, ph)
		}
	}

	// Post-drift: measure is frozen on the saturated proxy, feedback
	// re-routed — its p50 and p99 both beat measure's.
	mp, fp := meas.Phase("post"), fb.Phase("post")
	if fp.P50 >= mp.P50 || fp.P99 >= mp.P99 {
		t.Fatalf("post-drift feedback (p50 %v, p99 %v) does not beat frozen measure (p50 %v, p99 %v)",
			fp.P50, fp.P99, mp.P50, mp.P99)
	}
}
