// Package figures regenerates every table and figure of the paper's
// evaluation (Section VIII) plus the motivation microbenchmarks (Section
// II). Each Fig* function runs the corresponding experiment on the
// simulated testbed and returns printable tables; cmd/offloadbench exposes
// them as subcommands and bench_test.go as testing.B benchmarks.
//
// Scale note: the paper's runs use 32 processes per node and 100
// iterations. The simulator is deterministic, so defaults use fewer
// iterations, and the PPN is adjustable; pass the paper's values for
// full-scale runs (see EXPERIMENTS.md for the shipped results).
package figures

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/fft"
	"repro/internal/hpl"
	"repro/internal/sim"
	"repro/internal/stencil"
)

// Schemes compared in the collective/application experiments.
var nbcSchemes = []string{baseline.NameBluesMPI, baseline.NameProposed, baseline.NameIntelMPI}

// Fig2 reproduces Figure 2: RDMA-write latency, host-driven vs DPU-driven.
func Fig2(env bench.SweepEnv, iters int) *bench.Table {
	t := &bench.Table{
		Title:   "Fig 2: RDMA-Write Latency — Host-to-Host vs Host-to-DPU (us)",
		Headers: []string{"Size", "Host-to-Host", "Host-to-DPU", "Ratio"},
	}
	for _, row := range bench.MeasureRDMALatency(env, bench.Pow2Sizes(2, 2048), iters) {
		t.AddRow(bench.SizeLabel(row.Size),
			bench.F2(row.HostHost.Micros()),
			bench.F2(row.HostDPU.Micros()),
			bench.F2(float64(row.HostDPU)/float64(row.HostHost)))
	}
	t.Notes = append(t.Notes, "paper: DPU latency close to host latency (slower ARM posting amortized by wire time)")
	return t
}

// Fig3 reproduces Figure 3: RDMA-write bandwidth normalized to host-to-host.
func Fig3(env bench.SweepEnv, window, iters int) *bench.Table {
	t := &bench.Table{
		Title:   "Fig 3: RDMA-Write Bandwidth — normalized to Host-to-Host (higher is better)",
		Headers: []string{"Size", "Host GB/s", "DPU GB/s", "Normalized"},
	}
	for _, row := range bench.MeasureRDMABandwidth(env, bench.Pow2Sizes(2, 4<<20), window, iters) {
		t.AddRow(bench.SizeLabel(row.Size),
			bench.F2(row.HostHost), bench.F2(row.HostDPU), bench.F2(row.Normalized))
	}
	t.Notes = append(t.Notes, "paper: ~0.5 for small messages (ARM injection rate), converging at large messages")
	return t
}

// Fig4 reproduces Figure 4: nonblocking pingpong latency, host MPI vs a
// staging-based offload design.
func Fig4(env bench.SweepEnv, warmup, iters int) *bench.Table {
	t := &bench.Table{
		Title:   "Fig 4: Nonblocking Pingpong Latency — Host MPI vs Staging offload (us)",
		Headers: []string{"Size", "Host", "Staged", "Degradation"},
	}
	staging := baseline.StagingNoWarmupConfig()
	sizes := bench.Pow2Sizes(4<<10, 2<<20)
	host := make([]sim.Time, len(sizes))
	staged := make([]sim.Time, len(sizes))
	env.Sweep(2*len(sizes), func(j int, env bench.SweepEnv) {
		i := j / 2
		if j%2 == 0 {
			host[i] = bench.MeasurePingpongNB(env.Attach(bench.Options{
				Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI,
			}), sizes[i], warmup, iters)
		} else {
			staged[i] = bench.MeasurePingpongNB(env.Attach(bench.Options{
				Nodes: 2, PPN: 1, Scheme: baseline.NameBluesMPI, Core: &staging,
			}), sizes[i], warmup, iters)
		}
	})
	for i, size := range sizes {
		t.AddRow(bench.SizeLabel(size),
			bench.F2(host[i].Micros()), bench.F2(staged[i].Micros()),
			bench.F2(float64(staged[i])/float64(host[i])))
	}
	t.Notes = append(t.Notes, "paper: staging degrades latency vs direct host-host (extra hop through DPU DRAM)")
	return t
}

// Fig5 reproduces Figure 5: the two cross-GVMI registration costs.
func Fig5() *bench.Table {
	t := &bench.Table{
		Title:   "Fig 5: Memory registration overheads for cross-GVMI (us)",
		Headers: []string{"Size", "Host GVMI reg", "DPU cross-reg"},
	}
	for _, row := range bench.MeasureRegistration(bench.Pow2Sizes(4<<10, 4<<20)) {
		t.AddRow(bench.SizeLabel(row.Size),
			bench.F2(row.HostReg.Micros()), bench.F2(row.CrossReg.Micros()))
	}
	t.Notes = append(t.Notes, "both grow with size; cross-registration costs more (ARM cores, mkey validation)")
	return t
}

// Fig11And12 reproduces Figures 11 and 12: the 3D-stencil overall time
// (normalized to IntelMPI) and overlap percentage, Proposed vs IntelMPI.
func Fig11And12(env bench.SweepEnv, nodes, ppn, warmup, iters int, problems []int) (*bench.Table, *bench.Table) {
	t11 := &bench.Table{
		Title:   fmt.Sprintf("Fig 11: 3DStencil normalized overall time, %d nodes x %d PPN (lower is better)", nodes, ppn),
		Headers: []string{"Problem", "Proposed", "IntelMPI", "Proposed overall", "IntelMPI overall"},
	}
	t12 := &bench.Table{
		Title:   fmt.Sprintf("Fig 12: 3DStencil overlap %%, %d nodes x %d PPN", nodes, ppn),
		Headers: []string{"Problem", "Proposed", "IntelMPI"},
	}
	hostR := make([]stencil.Result, len(problems))
	propR := make([]stencil.Result, len(problems))
	env.Sweep(2*len(problems), func(j int, env bench.SweepEnv) {
		i := j / 2
		if j%2 == 0 {
			hostR[i] = stencil.Run(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameIntelMPI}), problems[i], warmup, iters)
		} else {
			propR[i] = stencil.Run(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed}), problems[i], warmup, iters)
		}
	})
	for i, n := range problems {
		host, prop := hostR[i], propR[i]
		label := fmt.Sprintf("%d^3", n)
		t11.AddRow(label,
			bench.F2(float64(prop.Overall)/float64(host.Overall)),
			"1.00",
			prop.Overall.String(), host.Overall.String())
		t12.AddRow(label, bench.Pct(prop.Overlap), bench.Pct(host.Overlap))
	}
	t11.Notes = append(t11.Notes, "paper: >20% benefit for Proposed")
	t12.Notes = append(t12.Notes, "paper: Proposed ~78% (intra-node transfers stay on the CPU); IntelMPI drops at the largest size")
	return t11, t12
}

// Fig13And14 reproduces Figures 13(a-c) and 14: Ialltoall overall time and
// overlap for BluesMPI / Proposed / IntelMPI across node counts and message
// sizes.
func Fig13And14(env bench.SweepEnv, nodesList []int, ppn int, sizes []int, warmup, iters int) ([]*bench.Table, []*bench.Table) {
	// One sweep job per (nodes, size, scheme) point, indexed in the exact
	// nesting order of the serial loops so the shared-registry metrics state
	// (and therefore -metrics output) is identical at any parallelism.
	ns, nsch := len(sizes), len(nbcSchemes)
	res := make([]bench.NBCResult, len(nodesList)*ns*nsch)
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		nodes := nodesList[j/(ns*nsch)]
		size := sizes[j/nsch%ns]
		scheme := nbcSchemes[j%nsch]
		res[j] = bench.MeasureIalltoall(env.Attach(bench.Options{
			Nodes: nodes, PPN: ppn, Scheme: scheme,
		}), size, warmup, iters)
	})

	var t13s, t14s []*bench.Table
	for ni, nodes := range nodesList {
		t13 := &bench.Table{
			Title:   fmt.Sprintf("Fig 13: Ialltoall overall time (comm+compute), %d nodes x %d PPN (us)", nodes, ppn),
			Headers: []string{"Size", "BluesMPI", "Proposed", "IntelMPI", "vs BluesMPI", "vs IntelMPI"},
		}
		t14 := &bench.Table{
			Title:   fmt.Sprintf("Fig 14: Ialltoall overlap %%, %d nodes x %d PPN", nodes, ppn),
			Headers: []string{"Size", "BluesMPI", "Proposed", "IntelMPI"},
		}
		for si, size := range sizes {
			row := map[string]bench.NBCResult{}
			for ki, scheme := range nbcSchemes {
				row[scheme] = res[(ni*ns+si)*nsch+ki]
			}
			b, p, i := row[baseline.NameBluesMPI], row[baseline.NameProposed], row[baseline.NameIntelMPI]
			t13.AddRow(bench.SizeLabel(size),
				bench.F2(b.Overall.Micros()), bench.F2(p.Overall.Micros()), bench.F2(i.Overall.Micros()),
				bench.Pct(100*(1-float64(p.Overall)/float64(b.Overall))),
				bench.Pct(100*(1-float64(p.Overall)/float64(i.Overall))))
			t14.AddRow(bench.SizeLabel(size),
				bench.Pct(b.Overlap), bench.Pct(p.Overlap), bench.Pct(i.Overlap))
		}
		t13.Notes = append(t13.Notes, "paper: Proposed up to 25/30/47% better than BluesMPI and 35/40/58% than IntelMPI at 4/8/16 nodes")
		t14.Notes = append(t14.Notes, "paper: BluesMPI and Proposed both near 100% overlap; IntelMPI lower")
		t13s = append(t13s, t13)
		t14s = append(t14s, t14)
	}
	return t13s, t14s
}

// Fig15 reproduces Figure 15: the scatter-destination exchange implemented
// with Simple (basic) primitives versus Group primitives, on the Proposed
// framework. Disabling the group cache isolates the metadata-exchange
// saving.
func Fig15(env bench.SweepEnv, nodes, ppn int, sizes []int, warmup, iters int, groupCache bool) *bench.Table {
	title := fmt.Sprintf("Fig 15: Scatter-destination pattern — Simple vs Group primitives, %d nodes x %d PPN (us)", nodes, ppn)
	if !groupCache {
		title += " [group cache OFF]"
	}
	t := &bench.Table{
		Title:   title,
		Headers: []string{"Size", "Simple", "Group", "Improvement"},
	}
	cfg := baseline.ProposedConfig()
	cfg.GroupCache = groupCache
	res := make([]bench.NBCResult, 2*len(sizes))
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		opt := env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed, Core: &cfg})
		res[j] = bench.MeasureScatterDest(opt, sizes[j/2], warmup, iters, j%2 == 0)
	})
	for i, size := range sizes {
		simple, group := res[2*i], res[2*i+1]
		t.AddRow(bench.SizeLabel(size),
			bench.F2(simple.Overall.Micros()), bench.F2(group.Overall.Micros()),
			bench.Pct(100*(1-float64(group.Overall)/float64(simple.Overall))))
	}
	t.Notes = append(t.Notes, "paper: Group primitives up to 40% better (host-side gathering + one-time metadata exchange)")
	return t
}

// Fig16 reproduces Figures 16(a) and 16(b): P3DFFT runtimes normalized to
// IntelMPI for a set of Z extents at fixed X=Y.
func Fig16(env bench.SweepEnv, nodes, ppn, xy int, zs []int, iters int) *bench.Table {
	// Application-level runs use no warm-up iterations: the paper traces
	// BluesMPI's app-level loss to exactly this (Section VIII-D).
	const warmup = 0
	t := &bench.Table{
		Title:   fmt.Sprintf("Fig 16: P3DFFT normalized runtime, %d nodes x %d PPN, X=Y=%d (lower is better)", nodes, ppn, xy),
		Headers: []string{"Z", "BluesMPI", "Proposed", "IntelMPI", "Proposed total"},
	}
	nsch := len(nbcSchemes)
	res := make([]fft.BenchResult, len(zs)*nsch)
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		res[j] = fft.RunBench(env.Attach(bench.Options{
			Nodes: nodes, PPN: ppn, Scheme: nbcSchemes[j%nsch],
		}), xy, xy, zs[j/nsch], warmup, iters)
	})
	for zi, z := range zs {
		row := map[string]fft.BenchResult{}
		for ki, scheme := range nbcSchemes {
			row[scheme] = res[zi*nsch+ki]
		}
		host := float64(row[baseline.NameIntelMPI].Total)
		t.AddRow(fmt.Sprint(z),
			bench.F2(float64(row[baseline.NameBluesMPI].Total)/host),
			bench.F2(float64(row[baseline.NameProposed].Total)/host),
			"1.00",
			row[baseline.NameProposed].Total.String())
	}
	t.Notes = append(t.Notes,
		"paper 16(a): Proposed up to 16% better than IntelMPI, 55% than BluesMPI (8 nodes)",
		"paper 16(b): up to 20% / 60% (16 nodes); BluesMPI suffers without warm-up iterations")
	return t
}

// Fig16C reproduces Figure 16(c): the single-phase profile (compute vs time
// in MPI) of the forward transform for problem P1.
func Fig16C(env bench.SweepEnv, nodes, ppn, xy, z, iters int) *bench.Table {
	const warmup = 0 // application level: no warm-up iterations
	t := &bench.Table{
		Title:   fmt.Sprintf("Fig 16(c): P3DFFT single-phase profile, %d nodes x %d PPN, %dx%dx%d (ms)", nodes, ppn, xy, xy, z),
		Headers: []string{"Library", "Compute", "MPI time", "Total"},
	}
	schemes := []string{baseline.NameIntelMPI, baseline.NameBluesMPI, baseline.NameProposed}
	res := make([]fft.BenchResult, len(schemes))
	env.Sweep(len(schemes), func(j int, env bench.SweepEnv) {
		res[j] = fft.RunBench(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: schemes[j]}), xy, xy, z, warmup, iters)
	})
	for i, scheme := range schemes {
		t.AddRow(scheme,
			bench.F2(res[i].Compute.Millis()), bench.F2(res[i].MPITime.Millis()), bench.F2(res[i].Total.Millis()))
	}
	t.Notes = append(t.Notes, "paper: compute identical across libraries; BluesMPI spends the most time in MPI_Wait (no warm-up at app level)")
	return t
}

// HPLVariant pairs a display name with scheme and broadcast variant.
type HPLVariant struct {
	Label   string
	Scheme  string
	Variant hpl.Variant
}

// HPLVariants is the Figure 17 comparison set.
var HPLVariants = []HPLVariant{
	{"IntelMPI-1ring", baseline.NameIntelMPI, hpl.Ring1},
	{"IntelMPI-Ibcast", baseline.NameIntelMPI, hpl.HostIbcast},
	{"BluesMPI", baseline.NameBluesMPI, hpl.Offload},
	{"Proposed", baseline.NameProposed, hpl.Offload},
}

// Fig17 reproduces Figure 17: HPL total runtime for problem sizes occupying
// the given percentages of memGB per node, normalized to IntelMPI-1ring.
func Fig17(env bench.SweepEnv, nodes, ppn, memGB, nb int, fracs []int) *bench.Table {
	t := &bench.Table{
		Title: fmt.Sprintf("Fig 17: HPL normalized runtime, %d nodes x %d PPN, %d GB/node (lower is better)",
			nodes, ppn, memGB),
		Headers: []string{"Mem%", "N", "IntelMPI-1ring", "IntelMPI-Ibcast", "BluesMPI", "Proposed"},
	}
	nv := len(HPLVariants)
	res := make([]hpl.Result, len(fracs)*nv)
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		v := HPLVariants[j%nv]
		par := hpl.DefaultParams(HPLSizeFor(nodes, memGB, fracs[j/nv], nb), nb, v.Variant)
		res[j] = hpl.Run(env.Attach(bench.Options{Nodes: nodes, PPN: ppn, Scheme: v.Scheme}), par)
	})
	for fi, frac := range fracs {
		n := HPLSizeFor(nodes, memGB, frac, nb)
		totals := map[string]sim.Time{}
		for vi, v := range HPLVariants {
			totals[v.Label] = res[fi*nv+vi].Total
		}
		base := float64(totals["IntelMPI-1ring"])
		t.AddRow(fmt.Sprintf("%d%%", frac), fmt.Sprint(n),
			"1.00",
			bench.F2(float64(totals["IntelMPI-Ibcast"])/base),
			bench.F2(float64(totals["BluesMPI"])/base),
			bench.F2(float64(totals["Proposed"])/base))
	}
	t.Notes = append(t.Notes,
		"paper: Proposed ~15-18% better at 5-10% memory, >=8.5% at 50-75%; 1ring ~ BluesMPI",
		"here: the 1D panel ring spans all np ranks (DESIGN.md), so small-fraction broadcasts",
		"are wire-bound and near-tied; the proposed win appears at 25-75% where updates race the ring")
	return t
}

// ChaosRates is the default fault-rate sweep for the chaos experiment.
var ChaosRates = []float64{0, 1e-4, 1e-3, 1e-2}

// FigChaos runs the reliability sweep: the Figure 13 Ialltoall overlap
// measurement repeated under deterministic fault injection at increasing
// rates, with every payload verified end to end. The rate-0 row attaches a
// silent injector and reproduces the fault-free Figure 13 timings exactly
// (a rate-zero plan draws no randomness and schedules the same events);
// nonzero rows show the retry/redelivery cost.
func FigChaos(env bench.SweepEnv, nodes, ppn int, seed int64, rates []float64, msgSize, warmup, iters int) *bench.Table {
	opt := bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed}
	results := bench.ChaosSweep(env, opt, seed, rates, msgSize, warmup, iters)
	t := bench.ChaosTable(results)
	t.Title = fmt.Sprintf("Chaos: Ialltoall (Proposed) under fault injection, %d nodes x %d PPN, seed %d",
		nodes, ppn, seed)
	return t
}

// HPLSizeFor converts a memory fraction into a matrix order, rounded to a
// multiple of nb (the HPL convention: N = sqrt(frac * total_mem / 8)).
func HPLSizeFor(nodes, memGB, fracPct, nb int) int {
	totalBytes := float64(nodes) * float64(memGB) * 1e9 * float64(fracPct) / 100
	n := int(math.Sqrt(totalBytes / 8))
	n -= n % nb
	if n < nb*2 {
		n = nb * 2
	}
	return n
}
