package tenant

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/policy"
)

// twoJobs is the canonical contended configuration: one latency-bound job
// and one bulk job sharing a single proxy ARM worker per node.
func twoJobs(fifo bool, fgPolicy string) Config {
	return Config{
		Nodes:         2,
		ProxiesPerDPU: 1,
		FIFO:          fifo,
		Jobs: []JobSpec{
			{Name: "fg", PPN: 2, Policy: fgPolicy, Weight: 1,
				Workload: Workload{Kind: Latency, Iters: 8}},
			{Name: "bg", PPN: 2, Policy: "gvmi", Weight: 1,
				Workload: Workload{Kind: Bulk, Iters: 4}},
		},
	}
}

// The whole point of a discrete-event simulation: identical configs give
// identical results, run after run, including per-iteration latencies.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(twoJobs(false, "gvmi"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(twoJobs(false, "gvmi"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
	for _, jr := range a.Jobs {
		if len(jr.Iters) == 0 || jr.P50 <= 0 || jr.P99 < jr.P50 || jr.Max < jr.P99 {
			t.Fatalf("job %s: implausible latency summary %+v", jr.Name, jr)
		}
		if jr.Bytes <= 0 || jr.Finish <= 0 {
			t.Fatalf("job %s: no work accounted: %+v", jr.Name, jr)
		}
	}
	if a.Makespan <= 0 || a.GoodputGBps() <= 0 {
		t.Fatalf("implausible aggregate: %+v", a)
	}
}

// Weighted fair scheduling must shift proxy service toward the heavier
// tenant. Two perfectly symmetric closed-loop bulk jobs saturate the
// shared port, so per-iteration durations equalize in steady state — the
// observable effect of priority is phase: whose RDMA lands on the wire
// first each round, and therefore who finishes first. With equal weights
// every pass tie breaks toward the lower tenant index, so job "a" leads —
// which is exactly why weighting "a" is a no-op, and why the probe is to
// weight "b": the disadvantaged tenant must overtake the tie-break.
func TestFairnessWeightsShiftService(t *testing.T) {
	base := func() Config {
		return Config{
			Nodes:         2,
			ProxiesPerDPU: 1,
			Jobs: []JobSpec{
				{Name: "a", PPN: 2, Policy: "gvmi", Weight: 1, Workload: Workload{Kind: Bulk, Iters: 4}},
				{Name: "b", PPN: 2, Policy: "gvmi", Weight: 1, Workload: Workload{Kind: Bulk, Iters: 4}},
			},
		}
	}
	equal, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	if ae, be := equal.Job("a"), equal.Job("b"); ae.Finish >= be.Finish {
		t.Errorf("equal weights should tie-break toward job a: a finish=%d b finish=%d", ae.Finish, be.Finish)
	}
	heavyB := base()
	heavyB.Jobs[1].Weight = 8
	heavy, err := Run(heavyB)
	if err != nil {
		t.Fatal(err)
	}
	af, bf := heavy.Job("a"), heavy.Job("b")
	if bf.Finish >= af.Finish {
		t.Errorf("weight 8 did not move job b ahead of a: a finish=%d b finish=%d", af.Finish, bf.Finish)
	}
	if be := equal.Job("b"); bf.Finish >= be.Finish {
		t.Errorf("weight 8 did not improve job b's finish: equal=%d weighted=%d", be.Finish, bf.Finish)
	}
	// Weighting the tenant that already wins every tie is a no-op on a
	// symmetric workload — byte-identical results, by design.
	heavyA := base()
	heavyA.Jobs[0].Weight = 8
	same, err := Run(heavyA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, equal) {
		t.Errorf("weighting the already-first tenant changed a symmetric run")
	}
}

// FIFO is the no-isolation fallback: it must run (deterministically) and
// expose the same per-tenant accounting series.
func TestFIFOFallback(t *testing.T) {
	m := metrics.NewRegistry()
	cfg := twoJobs(true, "gvmi")
	cfg.Metrics = m
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan <= 0 {
		t.Fatalf("no progress under FIFO: %+v", a)
	}
	snap := m.Snapshot()
	for _, tenant := range []string{"fg", "bg"} {
		if v := snap.CounterValueT("core", "proxy0", "tenant_dispatches", tenant); v <= 0 {
			t.Errorf("no dispatches attributed to %s under FIFO", tenant)
		}
	}
}

// Per-tenant congestion accounting must land in the registry: dispatch and
// busy counters per tenant on the shared proxy, cross-tenant wait
// histograms, and tenant-labelled policy decisions (a learned bundle's: a
// fixed one runs with no engine).
func TestTenantMetricsAttribution(t *testing.T) {
	m := metrics.NewRegistry()
	cfg := twoJobs(false, "adaptive")
	cfg.Jobs[0].Workload.Size = 2 * policy.SmallMsgCutoff // offloaded, like bg's bulk
	cfg.Jobs[1].Policy = "adaptive"
	cfg.Metrics = m
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, tenant := range []string{"fg", "bg"} {
		if v := snap.CounterValueT("core", "proxy0", "tenant_dispatches", tenant); v <= 0 {
			t.Errorf("tenant %s: no dispatches attributed", tenant)
		}
		if v := snap.CounterValueT("core", "proxy0", "tenant_busy_ns", tenant); v <= 0 {
			t.Errorf("tenant %s: no proxy busy time attributed", tenant)
		}
		if v := snap.CounterValueT("policy", "adaptive", "decide_gvmi", tenant); v <= 0 {
			t.Errorf("tenant %s: no tenant-labelled policy decisions", tenant)
		}
	}
	// The bulk job keeps the proxy busy while fg packets sit queued, so fg
	// must have observed cross-tenant head-of-line delay.
	found := false
	for _, h := range snap.Histograms {
		if h.Name == "cross_tenant_wait_ns" && h.Tenant == "fg" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("fg recorded no cross-tenant wait observations")
	}
}

// The crossover the tenants bench locates: under background bulk load on a
// single shared proxy, a fixed offload path loses to host-direct for
// latency-bound traffic, while the adaptive policy routes the small
// messages around the saturated DPU and exactly ties host-direct (its
// decisions are size-deterministic and cost no virtual time).
func TestAdaptiveRoutesAroundLoadedProxy(t *testing.T) {
	p99 := map[string][]int64{}
	for _, pol := range []string{"gvmi", "hostdirect", "adaptive"} {
		res, err := Run(twoJobs(false, pol))
		if err != nil {
			t.Fatal(err)
		}
		fg := res.Job("fg")
		p99[pol] = []int64{int64(fg.P99), int64(fg.P50)}
	}
	if p99["gvmi"][0] <= p99["hostdirect"][0] {
		t.Errorf("loaded proxy should make fixed offload lose: gvmi p99=%d hostdirect p99=%d",
			p99["gvmi"][0], p99["hostdirect"][0])
	}
	if !reflect.DeepEqual(p99["adaptive"], p99["hostdirect"]) {
		t.Errorf("adaptive (small-msg => host) should tie hostdirect exactly: adaptive=%v hostdirect=%v",
			p99["adaptive"], p99["hostdirect"])
	}
}

// Pattern workloads replay a pattern.Spec through group offload on the
// shared framework; excess ranks idle.
func TestPatternWorkload(t *testing.T) {
	spec := pattern.Ring(4, 32<<10)
	cfg := Config{
		Nodes:         2,
		ProxiesPerDPU: 1,
		Jobs: []JobSpec{
			{Name: "ring", PPN: 2, Policy: "gvmi",
				Workload: Workload{Kind: Pattern, Spec: spec, Iters: 3}},
			{Name: "bg", PPN: 2, Policy: "gvmi",
				Workload: Workload{Kind: Bulk, Iters: 2}},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := res.Job("ring")
	if ring.Bytes <= 0 || len(ring.Iters) == 0 {
		t.Fatalf("pattern job did no work: %+v", ring)
	}
}

// Config validation: bad configs must error, not deadlock or panic.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 2},
		{Nodes: 2, Jobs: []JobSpec{{Name: "", PPN: 1, Policy: "gvmi"}}},
		{Nodes: 2, Jobs: []JobSpec{{Name: "a", PPN: 0, Policy: "gvmi"}}},
		{Nodes: 2, Jobs: []JobSpec{{Name: "a", PPN: 1, Policy: "nope"}}},
		{Nodes: 2, Jobs: []JobSpec{{Name: "a", PPN: 1, Policy: "gvmi"}, {Name: "a", PPN: 1, Policy: "gvmi"}}},
		{Nodes: 2, Jobs: []JobSpec{{Name: "a", PPN: 1, Policy: "bluesmpi"}}},
		{Nodes: 2, Jobs: []JobSpec{{Name: "a", PPN: 1, Policy: "gvmi", Workload: Workload{Kind: Pattern}}}},
		{Nodes: 2, Jobs: []JobSpec{{Name: "a", PPN: 1, Policy: "gvmi",
			Workload: Workload{Kind: Pattern, Spec: pattern.Ring(8, 1<<10)}}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d: expected error, got none", i)
		}
	}
}

// A tenant pattern job and pattern.Run drive the same pattern.Replayer: over
// one spec, policy and call count they take the same decisions per datapath
// and record (install on the proxies) the same number of groups — one per
// rank for each of the two proxy paths the measure policy probes (its
// host-direct probe is clamped to the proxy default, which is cross-GVMI).
func TestPatternJobRecordsGroupsLikePatternRun(t *testing.T) {
	spec := pattern.Ring(4, 32<<10)
	const warmup, iters = 2, 4
	tally := func(reg *metrics.Registry) (decisions map[string]int64, installs int64) {
		decisions = map[string]int64{}
		reg.VisitCounters(func(k metrics.Key, c *metrics.Counter) {
			switch {
			case k.Layer == "policy" && strings.HasPrefix(k.Name, "decide_"):
				decisions[k.Name] += c.Value()
			case k.Layer == "core" && k.Name == "group_misses":
				installs += c.Value()
			}
		})
		return decisions, installs
	}

	solo := metrics.NewRegistry()
	if _, err := pattern.Run(spec, pattern.RunOptions{
		Spec:  baseline.Spec{Nodes: 2, PPN: 2, Scheme: "measure", Metrics: solo},
		Calls: warmup + iters,
	}); err != nil {
		t.Fatal(err)
	}
	shared := metrics.NewRegistry()
	if _, err := Run(Config{
		Nodes:   2,
		Metrics: shared,
		Jobs: []JobSpec{{Name: "ring", PPN: 2, Policy: "measure",
			Workload: Workload{Kind: Pattern, Spec: spec, Warmup: warmup, Iters: iters}}},
	}); err != nil {
		t.Fatal(err)
	}

	wantDec, wantInst := tally(solo)
	gotDec, gotInst := tally(shared)
	if wantInst != int64(2*spec.NRanks) {
		t.Fatalf("pattern.Run installed %d groups, want %d (2 probed paths x %d ranks)", wantInst, 2*spec.NRanks, spec.NRanks)
	}
	if gotInst != wantInst || !reflect.DeepEqual(gotDec, wantDec) {
		t.Fatalf("tenant job: %d installs, decisions %v; pattern.Run: %d installs, decisions %v",
			gotInst, gotDec, wantInst, wantDec)
	}
}

// A job that cannot finish is reported by the names of its blocked ranks,
// and the run is still retired: no goroutine outlives the error return.
func TestDeadlockNamesProcsAndLeaksNothing(t *testing.T) {
	spec, err := pattern.Parse(strings.NewReader(
		"0 recv 1 4K\n0 barrier\n0 send 1 4K\n1 recv 0 4K\n1 barrier\n1 send 0 4K\n"))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	_, err = Run(Config{Nodes: 2, Jobs: []JobSpec{{Name: "stuck", PPN: 1, Policy: "gvmi",
		Workload: Workload{Kind: Pattern, Spec: spec}}}})
	if err == nil {
		t.Fatal("deadlocking pattern job finished")
	}
	for _, name := range []string{"stuck.rank0", "stuck.rank1"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("deadlock report %q does not name %s", err, name)
		}
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after the deadlocked run, want the baseline %d", n, base)
	}
}
