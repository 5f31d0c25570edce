package bench

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/tenant"
)

// DriftSchema is the schema tag of the mid-run drift snapshot
// (BENCH_drift.json); bump it when the layout changes incompatibly.
const DriftSchema = "offload-drift/v1"

// driftPolicies are the foreground policies the drift scenario compares:
// the two fixed paths, the learner with re-probing off ("measure", which
// is frozen on the pre-drift argmin when the world changes), and the
// learner with re-probing on ("feedback"), which is supposed to notice and
// re-route.
var driftPolicies = []string{"gvmi", "hostdirect", "measure", "feedback"}

// Drift scenario shape. The foreground is a latency-bound alltoall with
// overlapped compute — the regime where DPU-progressed offload beats the
// host path (iteration ≈ max(compute, comm) vs compute + comm). The
// background tenants that arrive at DriftArrival replay chatty
// small-message patterns: per-op proxy handling and DPU injection
// overhead saturate the single shared ARM worker while moving so few
// bytes that host ports stay usable — exactly the drift that flips the
// best path from cross-GVMI to host-direct mid-run.
const (
	// DriftArrival is when the background tenants start (virtual time).
	DriftArrival = 1 * sim.Millisecond
	// DriftSettle is the grace window after arrival excluded from the
	// post-drift statistics: it covers drift detection, the feedback
	// policy's re-probe epoch, and the congestion ramp, so "post" numbers
	// compare steady states.
	DriftSettle = 8 * sim.Millisecond

	driftFgSize    = 64 << 10
	driftFgCompute = 50 * sim.Microsecond
	driftFgWarmup  = 4
	driftBgJobs    = 4
	driftBgOps     = 96   // messages per hop of the chatty background ring
	driftBgSize    = 1024 // bytes per background message
)

// DriftCase builds the drift scenario for one foreground policy: a
// latency-bound foreground job and driftBgJobs chatty background tenants
// arriving at DriftArrival, all contending for a single FIFO proxy worker
// per node (head-of-line blocking — fair queueing would shield the
// foreground and hide the drift).
func DriftCase(nodes, ppn, fgIters int, fgPolicy string) tenant.Config {
	jobs := []tenant.JobSpec{{
		Name: "fg", PPN: ppn, Policy: fgPolicy, Weight: 1,
		Workload: tenant.Workload{
			Kind: tenant.Latency, Size: driftFgSize, Compute: driftFgCompute,
			Iters: fgIters, Warmup: driftFgWarmup,
		},
	}}
	spec := pattern.Chatty(nodes*ppn, driftBgOps, driftBgSize)
	for i := 0; i < driftBgJobs; i++ {
		jobs = append(jobs, tenant.JobSpec{
			Name: fmt.Sprintf("bg%d", i), PPN: ppn, Policy: "gvmi", Weight: 1,
			Workload: tenant.Workload{
				Kind: tenant.Pattern, Spec: spec,
				// 5x the foreground count keeps the background active well
				// past the slowest foreground policy's finish, so every
				// post-drift window samples the same steady congestion.
				Iters: fgIters * 5, Warmup: 1, Start: DriftArrival,
			},
		})
	}
	return tenant.Config{Nodes: nodes, ProxiesPerDPU: 1, FIFO: true, Jobs: jobs}
}

// SplitDrift windows stamped iteration samples around the drift: "pre" are
// iterations that completed before the background arrived, "post" are
// iterations that started after the settle grace expired. Transition
// iterations (spanning arrival or settle) belong to neither. Both slices
// come back sorted for percentile lookup.
func SplitDrift(samples []tenant.IterSample, arrival, settle sim.Time) (pre, post []sim.Time) {
	for _, s := range samples {
		switch {
		case s.At <= arrival:
			pre = append(pre, s.Dur)
		case s.At-s.Dur >= arrival+settle:
			post = append(post, s.Dur)
		}
	}
	sort.Slice(pre, func(a, b int) bool { return pre[a] < pre[b] })
	sort.Slice(post, func(a, b int) bool { return post[a] < post[b] })
	return pre, post
}

// Percentile returns the p-th percentile of a sorted slice. It delegates
// to the shared metrics helper (nearest-rank, floor indexing) so every
// table in the repo uses one convention; kept exported for the CLIs.
func Percentile(sorted []sim.Time, p int) sim.Time {
	return metrics.Percentile(sorted, p)
}

// DriftPoint is one foreground policy's measured behaviour around the
// background arrival.
type DriftPoint struct {
	FgPolicy string `json:"fg_policy"`
	// Pre-drift (background not yet arrived) foreground latency.
	PreN    int   `json:"pre_n"`
	PreP50N int64 `json:"pre_p50_ns"`
	PreP99N int64 `json:"pre_p99_ns"`
	// Post-drift (after the settle grace) foreground latency.
	PostN    int   `json:"post_n"`
	PostP50N int64 `json:"post_p50_ns"`
	PostP99N int64 `json:"post_p99_ns"`
	// Reprobes counts the foreground engine's re-probe decisions (the
	// "reason_reprobe" policy counter; 0 for every non-feedback policy).
	Reprobes int64 `json:"reprobes"`
	// FinishNS is the foreground job's completion time; MakespanNS the
	// whole run's.
	FinishNS   int64 `json:"finish_ns"`
	MakespanNS int64 `json:"makespan_ns"`
}

// DriftConfig records the environment the series was measured under.
type DriftConfig struct {
	Nodes     int   `json:"nodes"`
	PPN       int   `json:"ppn"`
	FgIters   int   `json:"fg_iters"`
	ArrivalNS int64 `json:"arrival_ns"`
	SettleNS  int64 `json:"settle_ns"`
}

// DriftSnapshot is the checked-in drift baseline: per-policy foreground
// latency before and after background tenants arrive mid-run, plus the
// merged metrics (which carry the feedback engine's re-probe counters).
// Timings are deterministic, so any diff against the checked-in file is a
// real behaviour change.
type DriftSnapshot struct {
	Schema  string           `json:"schema"`
	Figure  string           `json:"figure"`
	Config  DriftConfig      `json:"config"`
	Series  []DriftPoint     `json:"series"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// DriftSeries measures every foreground policy's drift behaviour, one
// independent simulation per policy, distributed by the sweep runner —
// results are byte-identical at any -parallel value; per-run metrics merge
// into env.Met.
func DriftSeries(env SweepEnv, nodes, ppn, fgIters int) []DriftPoint {
	series := make([]DriftPoint, len(driftPolicies))
	job := func(i int, env SweepEnv) {
		pol := driftPolicies[i]
		cfg := DriftCase(nodes, ppn, fgIters, pol)
		cfg.Metrics = env.Met
		cfg.Spans = env.Sp
		res, err := tenant.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: drift policy=%s: %v", pol, err))
		}
		fg := res.Job("fg")
		pre, post := SplitDrift(fg.Samples, DriftArrival, DriftSettle)
		series[i] = DriftPoint{
			FgPolicy: pol,
			PreN:     len(pre),
			PreP50N:  int64(Percentile(pre, 50)),
			PreP99N:  int64(Percentile(pre, 99)),
			PostN:    len(post),
			PostP50N: int64(Percentile(post, 50)),
			PostP99N: int64(Percentile(post, 99)),
			Reprobes: res.Metrics.CounterT("policy", pol, "reason_reprobe", "fg").Value(),
			FinishNS: int64(fg.Finish), MakespanNS: int64(res.Makespan),
		}
	}
	env.Sweep(len(series), job)
	return series
}

// MeasureDrift runs the full drift scenario (2 nodes × 2 PPN per job, 80
// measured foreground iterations) with a live metrics registry attached
// and packages the series plus merged metrics into a DriftSnapshot.
func MeasureDrift(env SweepEnv) DriftSnapshot {
	const nodes, ppn, fgIters = 2, 2, 80
	env.Met = metrics.NewRegistry()
	s := DriftSnapshot{
		Schema: DriftSchema,
		Figure: "drift",
		Config: DriftConfig{
			Nodes: nodes, PPN: ppn, FgIters: fgIters,
			ArrivalNS: int64(DriftArrival), SettleNS: int64(DriftSettle),
		},
	}
	s.Series = DriftSeries(env, nodes, ppn, fgIters)
	s.Metrics = env.Met.Snapshot()
	return s
}

// Validate checks schema conformance and the headline claim this snapshot
// exists for: before the drift the offload path wins the latency-bound
// foreground, after it the frozen measure policy is stuck ≥ 1.3× worse
// than host-direct at the post-drift p50 while the feedback policy
// re-probes (at least one re-probe decision, none for measure) and ties
// host-direct at the post-drift p99.
func (s DriftSnapshot) Validate() error {
	if s.Schema != DriftSchema {
		return fmt.Errorf("bench: drift schema %q, want %q", s.Schema, DriftSchema)
	}
	if s.Figure == "" {
		return fmt.Errorf("bench: drift snapshot has no figure name")
	}
	if s.Config.Nodes <= 0 || s.Config.PPN <= 0 || s.Config.FgIters <= 0 ||
		s.Config.ArrivalNS <= 0 || s.Config.SettleNS <= 0 {
		return fmt.Errorf("bench: incomplete drift config %+v", s.Config)
	}
	pts := map[string]DriftPoint{}
	for i, p := range s.Series {
		if p.FgPolicy == "" {
			return fmt.Errorf("bench: drift series[%d] has no policy", i)
		}
		if p.PreN <= 0 || p.PostN <= 0 {
			return fmt.Errorf("bench: drift series[%d] (%s) has empty windows (pre %d, post %d)",
				i, p.FgPolicy, p.PreN, p.PostN)
		}
		if p.PreP50N <= 0 || p.PreP99N < p.PreP50N || p.PostP50N <= 0 || p.PostP99N < p.PostP50N {
			return fmt.Errorf("bench: drift series[%d] implausible latency %+v", i, p)
		}
		if p.FinishNS <= 0 || p.MakespanNS < p.FinishNS {
			return fmt.Errorf("bench: drift series[%d] implausible times %+v", i, p)
		}
		pts[p.FgPolicy] = p
	}
	for _, pol := range driftPolicies {
		if _, ok := pts[pol]; !ok {
			return fmt.Errorf("bench: drift series is missing policy %q", pol)
		}
	}
	gvmi, host, meas, fb := pts["gvmi"], pts["hostdirect"], pts["measure"], pts["feedback"]
	// Pre-drift: offload wins the overlapped-compute foreground.
	if gvmi.PreP50N >= host.PreP50N {
		return fmt.Errorf("bench: drift pre-window shows no offload win (gvmi p50 %d >= hostdirect %d)",
			gvmi.PreP50N, host.PreP50N)
	}
	// Post-drift: the frozen argmin is stuck on a saturated proxy.
	if meas.PostP50N*10 < host.PostP50N*13 {
		return fmt.Errorf("bench: drift post-window: frozen measure p50 %d is not >= 1.3x hostdirect %d",
			meas.PostP50N, host.PostP50N)
	}
	// Post-drift: feedback re-routed and ties host-direct (10% tolerance).
	if fb.PostP99N*10 > host.PostP99N*11 {
		return fmt.Errorf("bench: drift post-window: feedback p99 %d does not tie hostdirect %d",
			fb.PostP99N, host.PostP99N)
	}
	if fb.Reprobes < 1 {
		return fmt.Errorf("bench: drift feedback policy never re-probed")
	}
	if meas.Reprobes != 0 {
		return fmt.Errorf("bench: drift measure policy re-probed %d times (freeze-once must not)", meas.Reprobes)
	}
	reprobeSeries := false
	for _, c := range s.Metrics.Counters {
		if c.Name == "reason_reprobe" && c.Tenant == "fg" && c.Value > 0 {
			reprobeSeries = true
			break
		}
	}
	if !reprobeSeries {
		return fmt.Errorf("bench: drift snapshot metrics carry no re-probe counter")
	}
	return s.Metrics.Validate()
}
