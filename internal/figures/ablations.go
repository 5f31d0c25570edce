package figures

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
)

// Ablations isolates the design choices DESIGN.md calls out: the
// registration caches (Challenge 3), the group-request cache (Section
// VII-D), the GVMI-vs-staging mechanism (Section V), and the number of
// proxies per DPU (Section VII-A).
func Ablations(env bench.SweepEnv, ppn, warmup, iters int) []*bench.Table {
	const nodes = 4
	sizes := []int{8 << 10, 64 << 10, 256 << 10}
	var tables []*bench.Table

	// 1. Registration caches on/off (basic primitives, repeated buffers).
	t := &bench.Table{
		Title:   fmt.Sprintf("Ablation: GVMI/IB registration caches, basic primitives, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: []string{"Size", "Caches ON", "Caches OFF", "Saving"},
	}
	on := baseline.ProposedConfig()
	off := baseline.ProposedConfig()
	off.RegCaches = false
	regRes := make([]bench.NBCResult, 2*len(sizes))
	env.Sweep(len(regRes), func(j int, env bench.SweepEnv) {
		cfg := &on
		if j%2 == 1 {
			cfg = &off
		}
		regRes[j] = bench.MeasureScatterDest(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed, Core: cfg}), sizes[j/2], warmup, iters, true)
	})
	for i, size := range sizes {
		a, b := regRes[2*i], regRes[2*i+1]
		t.AddRow(bench.SizeLabel(size),
			bench.F2(a.Overall.Micros()), bench.F2(b.Overall.Micros()),
			bench.Pct(100*(1-float64(a.Overall)/float64(b.Overall))))
	}
	t.Notes = append(t.Notes, "without caches every transfer re-registers on host and DPU (Figure 5 costs, per message)")
	tables = append(tables, t)

	// 2. Group-request cache on/off.
	t = &bench.Table{
		Title:   fmt.Sprintf("Ablation: group-request cache, group primitives, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: []string{"Size", "Cache ON", "Cache OFF", "Saving"},
	}
	gOn := baseline.ProposedConfig()
	gOff := baseline.ProposedConfig()
	gOff.GroupCache = false
	grpRes := make([]bench.NBCResult, 2*len(sizes))
	env.Sweep(len(grpRes), func(j int, env bench.SweepEnv) {
		cfg := &gOn
		if j%2 == 1 {
			cfg = &gOff
		}
		grpRes[j] = bench.MeasureScatterDest(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed, Core: cfg}), sizes[j/2], warmup, iters, false)
	})
	for i, size := range sizes {
		a, b := grpRes[2*i], grpRes[2*i+1]
		t.AddRow(bench.SizeLabel(size),
			bench.F2(a.Overall.Micros()), bench.F2(b.Overall.Micros()),
			bench.Pct(100*(1-float64(a.Overall)/float64(b.Overall))))
	}
	t.Notes = append(t.Notes, "cache hit ships only the request ID; miss re-gathers metadata and re-sends the whole entry queue")
	tables = append(tables, t)

	// 3. Mechanism: GVMI vs staging under the identical group schedule.
	t = &bench.Table{
		Title:   fmt.Sprintf("Ablation: GVMI vs staging mechanism, group Ialltoall, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: []string{"Size", "GVMI", "Staging", "Saving"},
	}
	stg := baseline.StagingNoWarmupConfig()
	mechRes := make([]bench.NBCResult, 2*len(sizes))
	env.Sweep(len(mechRes), func(j int, env bench.SweepEnv) {
		if j%2 == 0 {
			mechRes[j] = bench.MeasureIalltoall(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed}), sizes[j/2], warmup, iters)
		} else {
			mechRes[j] = bench.MeasureIalltoall(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameBluesMPI, Core: &stg}), sizes[j/2], warmup, iters)
		}
	})
	for i, size := range sizes {
		a, b := mechRes[2*i], mechRes[2*i+1]
		t.AddRow(bench.SizeLabel(size),
			bench.F2(a.PureComm.Micros()), bench.F2(b.PureComm.Micros()),
			bench.Pct(100*(1-float64(a.PureComm)/float64(b.PureComm))))
	}
	t.Notes = append(t.Notes, "same schedule and caches; only the data path differs (Figure 6)")
	tables = append(tables, t)

	// 4. Proxies per DPU.
	t = &bench.Table{
		Title:   fmt.Sprintf("Ablation: proxies per DPU, Proposed Ialltoall 64K, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: []string{"Proxies", "Overall", "Overlap"},
	}
	proxyCounts := []int{1, 2, 4, 8}
	pxRes := make([]bench.NBCResult, len(proxyCounts))
	env.Sweep(len(pxRes), func(j int, env bench.SweepEnv) {
		pxRes[j] = bench.MeasureIalltoall(env.Attach(bench.Options{
			Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed, ProxiesPerDPU: proxyCounts[j],
		}), 64<<10, warmup, iters)
	})
	for i, nproxies := range proxyCounts {
		t.AddRow(fmt.Sprint(nproxies), bench.F2(pxRes[i].Overall.Micros()), bench.Pct(pxRes[i].Overlap))
	}
	t.Notes = append(t.Notes,
		"more workers spread control handling across ARM cores (proxy = rank %% proxies_per_dpu);",
		"near-flat results mean the shared DPU port, not ARM handling, bounds this scale")
	tables = append(tables, t)

	return tables
}
