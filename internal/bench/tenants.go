package bench

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/tenant"
)

// TenantsSchema is the schema tag of the multi-tenant crossover snapshot
// (BENCH_tenants.json); bump it when the layout changes incompatibly.
const TenantsSchema = "offload-tenants/v1"

// tenantsPolicies are the foreground policies the sweep compares at every
// background-load level: the fixed offload path, the pure host path, and
// the adaptive engine that is supposed to pick whichever wins.
var tenantsPolicies = []string{"gvmi", "hostdirect", "adaptive"}

// tenantsBgLevels are the background-job counts of the sweep: an idle
// fabric, light contention, and a loaded proxy.
var tenantsBgLevels = []int{0, 1, 3}

// TenantsCase builds one point of the crossover sweep: a latency-bound
// foreground job under fgPolicy sharing every node with bg bulk background
// jobs, all contending for a single proxy ARM worker per node (the
// configuration where proxy load is visible at all — the default 8 workers
// give every local rank a private proxy).
func TenantsCase(nodes, ppn, bg int, fgPolicy string, iters int) tenant.Config {
	jobs := []tenant.JobSpec{{
		Name: "fg", PPN: ppn, Policy: fgPolicy, Weight: 1,
		Workload: tenant.Workload{Kind: tenant.Latency, Iters: iters},
	}}
	for i := 0; i < bg; i++ {
		jobs = append(jobs, tenant.JobSpec{
			Name: fmt.Sprintf("bg%d", i), PPN: ppn, Policy: "gvmi", Weight: 1,
			Workload: tenant.Workload{Kind: tenant.Bulk, Iters: iters/2 + 1},
		})
	}
	return tenant.Config{Nodes: nodes, ProxiesPerDPU: 1, Jobs: jobs}
}

// TenantsJob is one job of one sweep point.
type TenantsJob struct {
	Name     string `json:"name"`
	Policy   string `json:"policy"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
	FinishNS int64  `json:"finish_ns"`
	Bytes    int64  `json:"bytes"`
}

// TenantsPoint is one measured configuration of the sweep.
type TenantsPoint struct {
	BgJobs      int          `json:"bg_jobs"`
	FgPolicy    string       `json:"fg_policy"`
	FgP50NS     int64        `json:"fg_p50_ns"`
	FgP99NS     int64        `json:"fg_p99_ns"`
	GoodputGBps float64      `json:"goodput_gbps"`
	MakespanNS  int64        `json:"makespan_ns"`
	Jobs        []TenantsJob `json:"jobs"`
}

// TenantsConfig records the environment the series was measured under.
type TenantsConfig struct {
	Nodes         int `json:"nodes"`
	PPN           int `json:"ppn"`
	ProxiesPerDPU int `json:"proxies_per_dpu"`
	Iters         int `json:"iters"`
}

// TenantsSnapshot is the checked-in multi-tenant baseline: per-tenant tail
// latency and aggregate goodput across the background-load × policy grid,
// plus the merged metrics of every run (which carries the tenant-labelled
// proxy attribution series). Timings are deterministic, so any diff against
// the checked-in file is a real behaviour change.
type TenantsSnapshot struct {
	Schema  string           `json:"schema"`
	Figure  string           `json:"figure"`
	Config  TenantsConfig    `json:"config"`
	Series  []TenantsPoint   `json:"series"`
	Metrics metrics.Snapshot `json:"metrics"`
}

// TenantsSeries sweeps the background-load × foreground-policy grid and
// returns one point per configuration, in grid order. Runs are independent
// simulations distributed by the sweep runner, so results are byte-identical
// at any -parallel value; per-run metrics merge into env.Met.
func TenantsSeries(env SweepEnv, nodes, ppn, iters int) []TenantsPoint {
	series := make([]TenantsPoint, len(tenantsBgLevels)*len(tenantsPolicies))
	job := func(i int, env SweepEnv) {
		bg := tenantsBgLevels[i/len(tenantsPolicies)]
		pol := tenantsPolicies[i%len(tenantsPolicies)]
		cfg := TenantsCase(nodes, ppn, bg, pol, iters)
		cfg.Metrics = env.Met
		cfg.Spans = env.Sp
		res, err := tenant.Run(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: tenants sweep bg=%d policy=%s: %v", bg, pol, err))
		}
		pt := TenantsPoint{
			BgJobs: bg, FgPolicy: pol,
			GoodputGBps: res.GoodputGBps(), MakespanNS: int64(res.Makespan),
		}
		for _, jr := range res.Jobs {
			pt.Jobs = append(pt.Jobs, TenantsJob{
				Name: jr.Name, Policy: jr.Policy,
				P50NS: int64(jr.P50), P99NS: int64(jr.P99),
				FinishNS: int64(jr.Finish), Bytes: jr.Bytes,
			})
		}
		fg := res.Job("fg")
		pt.FgP50NS, pt.FgP99NS = int64(fg.P50), int64(fg.P99)
		series[i] = pt
	}
	env.Sweep(len(series), job)
	return series
}

// MeasureTenants runs the full crossover sweep (2 nodes × 2 PPN per job,
// 8 measured iterations) with a live metrics registry attached and packages
// the series plus merged metrics into a TenantsSnapshot.
func MeasureTenants(env SweepEnv) TenantsSnapshot {
	const nodes, ppn, iters = 2, 2, 8
	env.Met = metrics.NewRegistry()
	s := TenantsSnapshot{
		Schema: TenantsSchema,
		Figure: "tenants",
		Config: TenantsConfig{Nodes: nodes, PPN: ppn, ProxiesPerDPU: 1, Iters: iters},
	}
	s.Series = TenantsSeries(env, nodes, ppn, iters)
	s.Metrics = env.Met.Snapshot()
	return s
}

// Validate checks schema conformance and the headline claim: some
// background-load level must make the fixed offload path lose to
// host-direct on foreground tail latency while the adaptive policy ties or
// beats host-direct — the crossover where a loaded proxy flips the offload
// win, which is the reason this snapshot exists.
func (s TenantsSnapshot) Validate() error {
	if s.Schema != TenantsSchema {
		return fmt.Errorf("bench: tenants schema %q, want %q", s.Schema, TenantsSchema)
	}
	if s.Figure == "" {
		return fmt.Errorf("bench: tenants snapshot has no figure name")
	}
	if s.Config.Nodes <= 0 || s.Config.PPN <= 0 || s.Config.ProxiesPerDPU <= 0 || s.Config.Iters <= 0 {
		return fmt.Errorf("bench: incomplete tenants config %+v", s.Config)
	}
	if len(s.Series) == 0 {
		return fmt.Errorf("bench: tenants snapshot has no series")
	}
	type cell struct {
		bg     int
		policy string
	}
	p99 := map[cell]int64{}
	for i, p := range s.Series {
		if p.FgPolicy == "" {
			return fmt.Errorf("bench: series[%d] has no policy", i)
		}
		if p.BgJobs < 0 || len(p.Jobs) != p.BgJobs+1 {
			return fmt.Errorf("bench: series[%d] has %d jobs for %d background jobs", i, len(p.Jobs), p.BgJobs)
		}
		if p.FgP50NS <= 0 || p.FgP99NS < p.FgP50NS {
			return fmt.Errorf("bench: series[%d] implausible fg latency %+v", i, p)
		}
		if p.MakespanNS <= 0 || p.GoodputGBps <= 0 {
			return fmt.Errorf("bench: series[%d] implausible aggregate %+v", i, p)
		}
		p99[cell{p.BgJobs, p.FgPolicy}] = p.FgP99NS
	}
	crossover := false
	for _, bg := range tenantsBgLevels {
		gvmi, ok1 := p99[cell{bg, "gvmi"}]
		host, ok2 := p99[cell{bg, "hostdirect"}]
		adap, ok3 := p99[cell{bg, "adaptive"}]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		if bg > 0 && gvmi > host && adap <= host {
			crossover = true
		}
	}
	if !crossover {
		return fmt.Errorf("bench: tenants series shows no offload crossover (no loaded level where fixed offload loses to host-direct and adaptive ties or wins)")
	}
	tenantSeries := false
	for _, c := range s.Metrics.Counters {
		if c.Tenant != "" {
			tenantSeries = true
			break
		}
	}
	if !tenantSeries {
		return fmt.Errorf("bench: tenants snapshot metrics carry no tenant-labelled series")
	}
	return s.Metrics.Validate()
}
