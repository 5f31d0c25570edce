package figures

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/sim"
)

// Tenants runs the multi-tenant crossover sweep: a latency-bound foreground
// job under each offload policy, against increasing background bulk load on
// a single shared proxy ARM worker per node. The table locates the point
// where the loaded proxy flips the offload win — fixed offload loses to
// host-direct while the adaptive policy routes around the contention.
func Tenants(env bench.SweepEnv, nodes, ppn, iters int) *bench.Table {
	t := &bench.Table{
		Title: fmt.Sprintf("Tenants: fg tail latency & aggregate goodput vs background load, %d nodes x %d PPN/job, 1 proxy/DPU",
			nodes, ppn),
		Headers: []string{"BG jobs", "FG policy", "FG p50 (us)", "FG p99 (us)", "Goodput GB/s", "Makespan (us)"},
	}
	for _, p := range bench.TenantsSeries(env, nodes, ppn, iters) {
		t.AddRow(fmt.Sprintf("%d", p.BgJobs), p.FgPolicy,
			bench.F2(sim.Time(p.FgP50NS).Micros()),
			bench.F2(sim.Time(p.FgP99NS).Micros()),
			bench.F2(p.GoodputGBps),
			bench.F2(sim.Time(p.MakespanNS).Micros()))
	}
	t.Notes = append(t.Notes,
		"loaded proxy: fixed offload (gvmi) p99 climbs past hostdirect; adaptive ties hostdirect by routing small messages to the host path",
		"weights and FIFO fallback: see internal/tenant (per-tenant proxy fair scheduling)")
	return t
}
