// Command patternsim offloads an arbitrary, user-defined communication
// pattern to the simulated DPU cluster and reports completion times and
// framework statistics — the "generic communication pattern" workflow the
// paper's Group primitives enable.
//
// Usage:
//
//	patternsim -preset ring -np 8 -size 256K -mech gvmi -compute 1ms
//	patternsim -file pattern.txt -calls 3 -nogroupcache
//	patternsim -preset alltoall -policy adaptive -calls 4
//	patternsim -preset ring -np 4 -tenants 4 -bgstart 500us -policy feedback
//
// Spec format (one op per line): "<rank> send <dst> <size> [tag]",
// "<rank> recv <src> <size> [tag]", "<rank> barrier"; # comments.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/tenant"
)

func main() {
	var (
		file       = flag.String("file", "", "pattern spec file ('-' = stdin)")
		preset     = flag.String("preset", "", "built-in pattern: ring | alltoall | neighbor")
		np         = flag.Int("np", 8, "ranks for presets")
		sizeStr    = flag.String("size", "64K", "transfer size for presets")
		nodes      = flag.Int("nodes", 0, "nodes (0 = derive from ranks and ppn)")
		ppn        = flag.Int("ppn", 8, "host processes per node")
		mech       = flag.String("mech", "gvmi", "mechanism: gvmi | staging")
		noRegCache = flag.Bool("noregcache", false, "disable registration caches")
		noGrpCache = flag.Bool("nogroupcache", false, "disable the group-request cache")
		computeStr = flag.String("compute", "0", "overlapped compute per call (e.g. 1ms)")
		calls      = flag.Int("calls", 1, "GroupCall repetitions")
		verify     = flag.Bool("verify", true, "payload-backed buffers with data checks")
		tenants    = flag.Int("tenants", 1, "replicate the pattern across N tenant jobs sharing the fabric and one proxy worker per node (-policy applies; incompatible with -mech staging, -compute, cache flags)")
		bgStartStr = flag.String("bgstart", "0", "stagger tenant arrivals: job i starts at i x this delay (e.g. 500us; mid-run arrivals drive feedback-policy re-probing)")
	)
	cf := bench.RegisterCommonFlags(flag.CommandLine)
	flag.Parse()
	cf.Activate()
	if cf.HandleDeviceQuery(os.Stdout) {
		return // -device list / -fleet help: documented exit 0
	}

	// Pattern runs build their own baseline cluster (no device plumbing),
	// and only the tenant runner can sample a time series: refuse what the
	// run would otherwise silently ignore.
	unsupported := []string{"device", "fleet"}
	if *tenants <= 1 {
		unsupported = append(unsupported, "timeseries")
	}
	if err := bench.RejectFlags(flag.CommandLine, "this patternsim run", unsupported...); err != nil {
		fmt.Fprintln(os.Stderr, "patternsim:", err)
		os.Exit(2)
	}

	spec, err := loadSpec(*file, *preset, *np, *sizeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "patternsim:", err)
		os.Exit(1)
	}

	if *tenants > 1 {
		if *mech != "gvmi" || *noRegCache || *noGrpCache || *computeStr != "0" {
			fmt.Fprintln(os.Stderr, "patternsim: -tenants runs on the shared proposed core (no -mech staging, cache flags, or -compute)")
			os.Exit(1)
		}
		bgStart, err := time.ParseDuration(*bgStartStr)
		if (err != nil && *bgStartStr != "0") || bgStart < 0 {
			fmt.Fprintln(os.Stderr, "patternsim: bad -bgstart:", err)
			os.Exit(1)
		}
		if err := runTenants(spec, *tenants, *nodes, *ppn, *calls, sim.Time(bgStart.Nanoseconds()), cf); err != nil {
			fmt.Fprintln(os.Stderr, "patternsim:", err)
			os.Exit(1)
		}
		if err := cf.Finish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "patternsim:", err)
			os.Exit(1)
		}
		return
	}

	cfg := core.DefaultConfig()
	if *mech == "staging" {
		cfg.Path = datapath.KindStaged
	} else if *mech != "gvmi" {
		fmt.Fprintln(os.Stderr, "patternsim: unknown mechanism", *mech)
		os.Exit(1)
	}
	cfg.RegCaches = !*noRegCache
	cfg.GroupCache = !*noGrpCache

	compute, err := time.ParseDuration(*computeStr)
	if err != nil && *computeStr != "0" {
		fmt.Fprintln(os.Stderr, "patternsim: bad -compute:", err)
		os.Exit(1)
	}

	// -policy overrides -mech: the bundle supplies both the core config and
	// the per-call datapath decision.
	res, err := pattern.Run(spec, pattern.RunOptions{
		Nodes: *nodes, PPN: *ppn, Core: cfg,
		Compute: sim.Time(compute.Nanoseconds()),
		Calls:   *calls, Backed: *verify,
		Policy:  cf.Policy,
		Metrics: cf.Registry(), Spans: cf.Spans(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "patternsim:", err)
		os.Exit(1)
	}

	if cf.Policy != "" {
		fmt.Printf("pattern: %d ranks, %d ops, policy=%s regcache=%v groupcache=%v calls=%d\n",
			res.NRanks, len(spec.Ops), cf.Policy, cfg.RegCaches, cfg.GroupCache, *calls)
	} else {
		fmt.Printf("pattern: %d ranks, %d ops, mechanism=%v regcache=%v groupcache=%v calls=%d\n",
			res.NRanks, len(spec.Ops), *mech, cfg.RegCaches, cfg.GroupCache, *calls)
	}
	for r, t := range res.PerRank {
		fmt.Printf("  rank %-3d done at %v\n", r, t)
	}
	fmt.Printf("slowest rank: %v\n", res.Last)
	if *verify {
		status := "OK"
		if !res.DataOK {
			status = "CORRUPTED"
		}
		fmt.Printf("data integrity: %s (%d receives checked)\n", status, res.DataChecks)
	}
	fmt.Printf("stats: %v\n", res.Stats)
	if err := cf.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "patternsim:", err)
		os.Exit(1)
	}
}

// runTenants replays the pattern as n concurrent tenant jobs on one shared
// cluster with a single proxy worker per node, reporting per-tenant call
// latencies and the aggregate makespan. A non-zero bgStart staggers the
// jobs: job i sleeps i x bgStart before its first call, so later tenants
// arrive mid-run from the earlier tenants' point of view (the drift that
// feedback policies re-probe under).
func runTenants(spec *pattern.Spec, n, nodes, ppn, calls int, bgStart sim.Time, cf *bench.CommonFlags) error {
	pol := cf.Policy
	if pol == "" {
		pol = "gvmi"
	}
	if nodes == 0 {
		nodes = (spec.NRanks + ppn - 1) / ppn
	}
	jobs := make([]tenant.JobSpec, n)
	for i := range jobs {
		jobs[i] = tenant.JobSpec{
			Name: fmt.Sprintf("t%d", i), PPN: ppn, Policy: pol,
			Workload: tenant.Workload{
				Kind: tenant.Pattern, Spec: spec, Iters: calls, Warmup: -1,
				Start: sim.Time(i) * bgStart,
			},
		}
	}
	res, err := tenant.Run(tenant.Config{
		Nodes: nodes, ProxiesPerDPU: 1, Jobs: jobs,
		Metrics: cf.Registry(), Spans: cf.Spans(), Timeline: cf.Timeline().NewRecorder(""),
	})
	if err != nil {
		return err
	}
	fmt.Printf("tenants: %d jobs x %d ranks, %d ops each, policy=%s, %d nodes, 1 proxy/DPU, calls=%d\n",
		n, spec.NRanks, len(spec.Ops), pol, nodes, calls)
	for _, jr := range res.Jobs {
		fmt.Printf("  job %-4s p50=%v p99=%v finish=%v\n", jr.Name, jr.P50, jr.P99, jr.Finish)
	}
	fmt.Printf("makespan: %v, aggregate goodput: %.2f GB/s\n", res.Makespan, res.GoodputGBps())
	return nil
}

func loadSpec(file, preset string, np int, sizeStr string) (*pattern.Spec, error) {
	size, err := pattern.ParseSize(sizeStr)
	if err != nil {
		return nil, err
	}
	switch {
	case file == "-":
		return pattern.Parse(os.Stdin)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pattern.Parse(f)
	case preset == "ring":
		return pattern.Ring(np, size), nil
	case preset == "alltoall":
		return pattern.Alltoall(np, size), nil
	case preset == "neighbor":
		return pattern.Neighbor(np, size), nil
	default:
		return nil, fmt.Errorf("need -file or -preset (ring|alltoall|neighbor)")
	}
}
