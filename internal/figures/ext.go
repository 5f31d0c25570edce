package figures

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cluster"
)

// ExtBF3 explores the paper's future-work platform (Section X): the same
// Ialltoall comparison on a BlueField-3 + NDR testbed. Faster ARM cores
// shrink the host/DPU injection gap, so the offload schemes gain on both
// axes: lower proxy overheads and double the line rate.
func ExtBF3(env bench.SweepEnv, nodes, ppn int, sizes []int, warmup, iters int) *bench.Table {
	t := &bench.Table{
		Title:   fmt.Sprintf("Extension: BlueField-3 + NDR (future work), Ialltoall overall time, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: []string{"Size", "BF2 Proposed", "BF3 Proposed", "BF3 BluesMPI", "BF3 IntelMPI", "BF3 vs BF2"},
	}
	// Per size: one BF2 job followed by one job per BF3 scheme, in the
	// serial nesting order.
	stride := 1 + len(nbcSchemes)
	res := make([]bench.NBCResult, len(sizes)*stride)
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		size := sizes[j/stride]
		k := j % stride
		if k == 0 {
			res[j] = bench.MeasureIalltoall(env.Attach(bench.Options{
				Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed,
			}), size, warmup, iters)
			return
		}
		ccfg := cluster.BlueField3Config(nodes, ppn)
		res[j] = bench.MeasureIalltoall(env.Attach(bench.Options{
			Nodes: nodes, PPN: ppn, Scheme: nbcSchemes[k-1], Cluster: &ccfg,
		}), size, warmup, iters)
	})
	for si, size := range sizes {
		bf2 := res[si*stride]
		row := map[string]bench.NBCResult{}
		for ki, scheme := range nbcSchemes {
			row[scheme] = res[si*stride+1+ki]
		}
		t.AddRow(bench.SizeLabel(size),
			bench.F2(bf2.Overall.Micros()),
			bench.F2(row[baseline.NameProposed].Overall.Micros()),
			bench.F2(row[baseline.NameBluesMPI].Overall.Micros()),
			bench.F2(row[baseline.NameIntelMPI].Overall.Micros()),
			bench.Pct(100*(1-float64(row[baseline.NameProposed].Overall)/float64(bf2.Overall))))
	}
	t.Notes = append(t.Notes, "BF3 ARM overhead 350ns (vs 600ns), NDR 25 GB/s (vs HDR100 12.5 GB/s)")
	return t
}

// ExtIallgather compares the ring Iallgather across schemes — the
// collective reference [9] offloads by staging, implemented here over the
// Group primitives with ordering barriers (each forwarding step depends on
// the previous receive).
func ExtIallgather(env bench.SweepEnv, nodes, ppn int, sizes []int, warmup, iters int) *bench.Table {
	t := &bench.Table{
		Title:   fmt.Sprintf("Extension: Iallgather (ref [9] workload) overall time, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: []string{"Size", "BluesMPI", "Proposed", "IntelMPI", "Proposed overlap"},
	}
	nsch := len(nbcSchemes)
	res := make([]bench.NBCResult, len(sizes)*nsch)
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		res[j] = bench.MeasureIallgather(env.Attach(bench.Options{
			Nodes: nodes, PPN: ppn, Scheme: nbcSchemes[j%nsch],
		}), sizes[j/nsch], warmup, iters)
	})
	for si, size := range sizes {
		row := map[string]bench.NBCResult{}
		for ki, scheme := range nbcSchemes {
			row[scheme] = res[si*nsch+ki]
		}
		t.AddRow(bench.SizeLabel(size),
			bench.F2(row[baseline.NameBluesMPI].Overall.Micros()),
			bench.F2(row[baseline.NameProposed].Overall.Micros()),
			bench.F2(row[baseline.NameIntelMPI].Overall.Micros()),
			bench.Pct(row[baseline.NameProposed].Overlap))
	}
	t.Notes = append(t.Notes, "the host ring stalls between steps without CPU intervention; the offloaded ring chains on the proxies")
	return t
}
