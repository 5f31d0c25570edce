package figures

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
)

// PolicyAblation sweeps the nonblocking Ialltoall of the Figure 13 loop
// across every offload-policy bundle: the three fixed datapaths
// (host-direct, staged, cross-GVMI), the size/op-class adaptive rule, and
// the online measuring policy. The acceptance bar is that the adaptive
// column matches or beats the best fixed datapath at every size — it may
// tie (it picks one of the fixed paths), it must never lose.
//
// only restricts the sweep to a single bundle (the -policy flag); empty
// runs all of them.
func PolicyAblation(env bench.SweepEnv, nodes, ppn int, sizes []int, warmup, iters int, only string) *bench.Table {
	policies := baseline.PolicyNames()
	if only != "" {
		policies = []string{only}
	}
	t := &bench.Table{
		Title:   fmt.Sprintf("Policy ablation: Ialltoall overall time across offload policies, %d nodes x %d PPN (us)", nodes, ppn),
		Headers: append([]string{"Size"}, policies...),
	}
	res := make([]bench.NBCResult, len(sizes)*len(policies))
	env.Sweep(len(res), func(j int, env bench.SweepEnv) {
		size := sizes[j/len(policies)]
		pol := policies[j%len(policies)]
		res[j] = bench.MeasureIalltoall(env.Attach(bench.Options{
			Nodes: nodes, PPN: ppn, Policy: pol,
		}), size, warmup, iters)
	})
	for i, size := range sizes {
		row := []string{bench.SizeLabel(size)}
		for p := range policies {
			row = append(row, bench.F2(res[i*len(policies)+p].Overall.Micros()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"fixed bundles reproduce the scheme presets (gvmi=Proposed, bluesmpi=BluesMPI, hostdirect=IntelMPI) bit-exactly;",
		"adaptive picks per (op-class, size) with no feedback; measure probes each proxy path then freezes on the cheapest")
	return t
}
