// Command offloadbench regenerates every table and figure of the paper's
// evaluation on the simulated BlueField cluster, the extension figures
// built on top of them, and the pinned BENCH_*.json baselines.
//
// Usage:
//
//	offloadbench <figure> [flags]
//	offloadbench snap [-check] NAME|all [-o PATH]
//
// Figures: fig2 fig3 fig4 fig5 fig11 fig12 fig13 fig14 fig15 fig16a fig16b
// fig16c fig17 ablation policy ext-bf3 ext-allgather chaos tenants drift
// fleet all scale critical-path timeline
//
// Baselines (snap NAME): fig13 tenants drift scale fleet
//
// Run with no arguments for one line per figure and flag. Defaults are
// scaled to finish in minutes on a laptop (fewer iterations and, for the
// applications, a reduced PPN); fig17 is the slowest at roughly 15 minutes.
// Pass -ppn 32 -full for paper-scale runs. All times are virtual
// (simulated) nanosecond-resolution measurements and are fully
// deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// `offloadbench -device list` / `-fleet help` are flag-only queries: no
	// figure word, print the capability matrix / fleet grammar and exit 0.
	args := os.Args[1:]
	fig := args[0]
	if len(fig) > 0 && fig[0] == '-' {
		fig = ""
	} else {
		args = args[1:]
	}
	// `snap [-check] NAME|all [flags]`: the words after snap are its own.
	var snapName string
	var snapCheck bool
	if fig == "snap" {
		if len(args) > 0 && args[0] == "-check" {
			snapCheck, args = true, args[1:]
		}
		if len(args) == 0 || args[0] == "" || args[0][0] == '-' {
			usage()
			os.Exit(2)
		}
		snapName, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("offloadbench", flag.ExitOnError)
	var (
		ppn    = fs.Int("ppn", 0, "processes per node (0 = figure default)")
		iters  = fs.Int("iters", 0, "measured iterations (0 = figure default)")
		warmup = fs.Int("warmup", 4, "warmup iterations (benchmark level; apps run with none)")
		full   = fs.Bool("full", false, "paper-scale parameters (slow)")
		memGB  = fs.Int("memgb", 0, "HPL memory per node in GB (0 = default)")
		nb     = fs.Int("nb", 256, "HPL block size")
		seed   = fs.Int64("seed", 42, "chaos fault-injection seed")
		size   = fs.Int("size", 32<<10, "chaos/scale message size in bytes")
		maxrk  = fs.Int("maxranks", 0, "scale: largest rank count of the sweep (0 = full 128..1024)")
		outp   = fs.String("o", "", "output path (snap NAME: the baseline's file; scale: none; timeline: TIMELINE)")
		cprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to <path>")
		mprof  = fs.String("memprofile", "", "write a pprof heap profile after the run to <path>")
	)
	cf := bench.RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	cf.Activate()
	if cf.HandleDeviceQuery(os.Stdout) {
		return // -device list / -fleet help: documented exit 0
	}
	if fig == "" {
		usage()
		os.Exit(2)
	}

	if *cprof != "" {
		f, err := os.Create(*cprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mprof != "" {
		defer func() {
			err := bench.WriteFile(*mprof, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				fatal(err)
			}
		}()
	}

	p := params{ppn: *ppn, iters: *iters, warmup: *warmup, full: *full, memGB: *memGB, nb: *nb,
		seed: *seed, size: *size}
	out := os.Stdout

	if fig == "snap" {
		rows := bench.Baselines
		if snapName != "all" {
			b, ok := bench.FindBaseline(snapName)
			if !ok {
				fatal(fmt.Errorf("snap: no baseline %q", snapName))
			}
			rows = []bench.Baseline{b}
		} else if *outp != "" {
			fatal(fmt.Errorf("snap all: -o names one file"))
		}
		verb, do := "wrote", func(b bench.Baseline, path string) (string, error) {
			return b.Write(path, b.Measure())
		}
		if snapCheck {
			verb, do = "checked", bench.Baseline.CheckFile
		}
		for _, b := range rows {
			if b.Slow && snapName == "all" && !snapCheck {
				continue
			}
			path := b.File
			if *outp != "" {
				path = *outp
			}
			summary, err := do(b, path)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(out, "%s %s (%s)\n", verb, path, summary)
		}
		return
	}

	if fig == "scale" {
		runScale(out, p, *maxrk, *outp)
		return
	}

	if fig == "critical-path" {
		criticalPath(out, p)
		return
	}

	if fig == "timeline" {
		runTimeline(out, p, *outp)
		return
	}

	run := func(name string) {
		switch name {
		case "policy":
			figures.PolicyAblation(4, p.a2aPPN(), p.a2aSizes(), *warmup, p.it(2), cf.Policy).Fprint(out)
		case "fig2":
			figures.Fig2(p.it(20)).Fprint(out)
		case "fig3":
			figures.Fig3(64, p.it(4)).Fprint(out)
		case "fig4":
			figures.Fig4(*warmup, p.it(10)).Fprint(out)
		case "fig5":
			figures.Fig5().Fprint(out)
		case "fig11", "fig12":
			t11, t12 := figures.Fig11And12(16, p.appPPN(), *warmup, p.it(3), p.stencilProblems())
			if name == "fig11" {
				t11.Fprint(out)
			} else {
				t12.Fprint(out)
			}
		case "fig13", "fig14":
			t13s, t14s := figures.Fig13And14([]int{4, 8, 16}, p.a2aPPN(), p.a2aSizes(), *warmup, p.it(2))
			ts := t13s
			if name == "fig14" {
				ts = t14s
			}
			for _, t := range ts {
				t.Fprint(out)
			}
		case "fig15":
			figures.Fig15(8, p.a2aPPN(), p.fig15Sizes(), *warmup, p.it(3), true).Fprint(out)
		case "fig16a":
			figures.Fig16(8, p.appPPN(), 256, []int{512, 1024, 2048}, p.it(2)).Fprint(out)
		case "fig16b":
			figures.Fig16(16, p.appPPN(), 512, []int{1024, 2048, 4096}, p.it(2)).Fprint(out)
		case "fig16c":
			figures.Fig16C(8, p.appPPN(), 256, 512, p.it(2)).Fprint(out)
		case "fig17":
			figures.Fig17(16, p.hplPPN(), p.hplMemGB(), *nb, []int{5, 10, 25, 50, 75}).Fprint(out)
		case "ablation":
			for _, t := range figures.Ablations(p.a2aPPN(), *warmup, p.it(2)) {
				t.Fprint(out)
			}
		case "ext-bf3":
			figures.ExtBF3(4, p.a2aPPN(), p.a2aSizes(), *warmup, p.it(2)).Fprint(out)
		case "ext-allgather":
			figures.ExtIallgather(4, p.a2aPPN(), p.a2aSizes(), *warmup, p.it(2)).Fprint(out)
		case "chaos":
			figures.FigChaos(2, p.a2aPPN(), p.seed, figures.ChaosRates, p.size, *warmup, p.it(2)).Fprint(out)
		case "tenants":
			figures.Tenants(2, p.tenantPPN(), p.it(8)).Fprint(out)
		case "drift":
			figures.Drift(2, p.tenantPPN(), p.it(80)).Fprint(out)
			figures.DriftAttribution(2, p.tenantPPN(), p.it(80)).Fprint(out)
		case "fleet":
			figures.FleetTable(bench.MeasureFleet()).Fprint(out)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			usage()
			os.Exit(2)
		}
	}

	if fig == "all" {
		for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig11", "fig12",
			"fig13", "fig14", "fig15", "fig16a", "fig16b", "fig16c", "fig17", "ablation", "policy", "ext-bf3", "ext-allgather", "chaos", "tenants", "drift"} {
			run(name)
		}
	} else {
		run(fig)
	}
	if err := cf.Finish(out); err != nil {
		fatal(err)
	}
}

// runScale measures the scaling sweep (optionally a reduced prefix or a
// different shape), validates the fig-shape claims and prints the table.
// It writes a snapshot only when asked to with -o; the checked-in
// BENCH_scale.json is `snap scale`'s.
func runScale(out *os.File, p params, maxRanks int, path string) {
	cfg := bench.DefaultScaleConfig()
	if p.ppn > 0 {
		cfg.PPN = p.ppn
	}
	cfg.Size = p.size
	if p.iters > 0 {
		cfg.Iters = p.iters
	}
	if maxRanks > 0 {
		var ranks []int
		for _, r := range cfg.Ranks {
			if r <= maxRanks {
				ranks = append(ranks, r)
			}
		}
		if len(ranks) == 0 {
			fatal(fmt.Errorf("scale: -maxranks %d keeps no rank count of %v", maxRanks, cfg.Ranks))
		}
		cfg.Ranks = ranks
	}
	t0 := time.Now()
	snap := bench.MeasureScale(cfg)
	wall := time.Since(t0)
	if err := snap.Validate(); err != nil {
		fatal(err)
	}
	figures.ScaleTable(snap).Fprint(out)
	fmt.Fprintf(out, "%d rank counts up to %d, claims validated, %s wall\n",
		len(snap.Series), snap.Series[len(snap.Series)-1].Ranks, wall.Round(time.Millisecond))
	if path != "" {
		row, _ := bench.FindBaseline("scale")
		if _, err := row.Write(path, snap); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "wrote %s\n", path)
	}
}

// runTimeline runs the drift scenario for every foreground policy with the
// virtual-time flight recorder attached (and span tracing for the two
// policies whose gap is the re-route win), exports the time series, and
// prints the drift-attribution table plus a per-policy SLO summary.
func runTimeline(out *os.File, p params, path string) {
	if path == "" {
		path = "TIMELINE"
	}
	const nodes = 2
	ppn := p.tenantPPN()
	iters := p.it(80)
	policies := []string{"gvmi", "hostdirect", "measure", "feedback"}
	spansFor := map[string]bool{"measure": true, "feedback": true}
	runs := bench.CollectDriftTimelines(nodes, ppn, iters, policies, spansFor)

	recs := make([]*telemetry.Recorder, len(runs))
	for i := range runs {
		recs[i] = runs[i].Rec
	}
	writeTo := func(name string, fn func(io.Writer) error) {
		if err := bench.WriteFile(name, fn); err != nil {
			fatal(err)
		}
	}
	writeTo(path+".jsonl", func(w io.Writer) error { return telemetry.WriteJSONL(w, recs...) })
	writeTo(path+".prom", func(w io.Writer) error { return telemetry.WritePrometheusTS(w, recs...) })
	fmt.Fprintf(out, "timeseries: %s.jsonl, %s.prom (%d runs)\n", path, path, len(runs))

	var atts []bench.DriftAttribution
	for _, run := range runs {
		if run.Spans == nil {
			continue
		}
		// One trace per traced policy: the policy's span tracks plus its
		// recorder's counter tracks in a single Chrome trace file.
		trace := fmt.Sprintf("%s.%s.trace.json", path, run.Policy)
		sc := run.Spans
		extra := run.Rec.ChromeCounterLines()
		writeTo(trace, func(w io.Writer) error { return sc.WriteChromeTraceWith(w, extra) })
		fmt.Fprintf(out, "trace: %s (%d spans, %d counter samples)\n", trace, sc.Len(), len(extra))
		a, err := bench.AttributeDrift(run)
		if err != nil {
			fatal(err)
		}
		atts = append(atts, a)
	}
	figures.DriftAttributionTable(atts).Fprint(out)

	fmt.Fprintf(out, "\nSLO (objective %s, foreground job):\n", bench.DriftSLOObjective)
	for _, run := range runs {
		met := run.Res.Metrics
		samples := met.CounterT("slo", "latency", "samples", "fg").Value()
		viol := met.CounterT("slo", "latency", "violations", "fg").Value()
		burnMax := met.GaugeT("slo", "latency", "burn_rate_max", "fg").Value()
		fmt.Fprintf(out, "  %-10s %4d/%4d iterations violated, worst window burn %.1fx budget\n",
			run.Policy, viol, samples, burnMax)
	}
}

// criticalPath runs the fig13 Ialltoall loop plus a chaos run with span
// collection on, and prints a representative critical path and the
// per-layer latency-attribution table for each.
func criticalPath(out *os.File, p params) {
	opt := bench.Options{Nodes: 2, PPN: p.a2aPPN(), Scheme: baseline.NameProposed}
	size := p.size

	fmt.Fprintf(out, "=== critical path: ialltoall np=%d size=%d (proposed) ===\n",
		opt.Nodes*opt.PPN, size)
	sc, r := bench.CollectSpans(opt, size, p.warmup, p.it(2))
	printAttribution(out, sc)
	fmt.Fprintf(out, "pure_comm=%s overall=%s\n\n", r.PureComm, r.Overall)

	fmt.Fprintf(out, "=== critical path: ialltoall under chaos (rate 1e-3, seed %d) ===\n", p.seed)
	csc, cr := bench.CollectChaosSpans(opt, fault.Scaled(p.seed, 1e-3), 1e-3, size, p.warmup, p.it(2))
	printAttribution(out, csc)
	fmt.Fprintf(out, "overall=%s verified=%v retries=%d\n", cr.Overall, cr.Verified, cr.Fault.Retries)
}

// printAttribution prints the critical path of the last completed
// collective root (the steady-state iteration) and the attribution table
// aggregated over every collective root.
func printAttribution(out *os.File, sc *span.Collector) {
	roots := sc.RootsNamed("coll", "ialltoall")
	if len(roots) == 0 {
		fmt.Fprintln(out, "no collective roots recorded")
		return
	}
	last := roots[len(roots)-1]
	fmt.Fprint(out, sc.FormatPath(last))
	var total sim.Time
	for _, id := range roots {
		if s, ok := sc.Get(id); ok && s.Ended {
			total += s.Dur()
		}
	}
	fmt.Fprintf(out, "\nattribution over %d roots:\n%s", len(roots),
		span.FormatAttribution(sc.Attribution(roots), total))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "offloadbench:", err)
	os.Exit(1)
}

// params resolves per-figure defaults vs the -full flag.
type params struct {
	ppn, iters, warmup int
	full               bool
	memGB, nb          int
	seed               int64
	size               int
}

// it picks the iteration count.
func (p params) it(def int) int {
	if p.iters > 0 {
		return p.iters
	}
	if p.full {
		return def * 3
	}
	return def
}

// a2aPPN is the PPN for alltoall microbenchmarks (paper: 32).
func (p params) a2aPPN() int {
	if p.ppn > 0 {
		return p.ppn
	}
	if p.full {
		return 32
	}
	return 8
}

// appPPN is the PPN for application runs (paper: 32).
func (p params) appPPN() int {
	if p.ppn > 0 {
		return p.ppn
	}
	if p.full {
		return 32
	}
	return 8
}

// hplPPN keeps HPL runs tractable by default. The broadcast-vs-update race
// the paper studies needs enough ranks that the panel ring is comparable to
// the local update; 16 PPN with 2 GB/node reproduces the shape in minutes.
func (p params) hplPPN() int {
	if p.ppn > 0 {
		return p.ppn
	}
	if p.full {
		return 32
	}
	return 16
}

// hplMemGB scales the HPL problem (paper: 256 GB/node).
func (p params) hplMemGB() int {
	if p.memGB > 0 {
		return p.memGB
	}
	if p.full {
		return 256
	}
	return 16
}

// tenantPPN is the per-job PPN of the multi-tenant sweep: every job places
// this many ranks on every node, so the shared proxy serves jobs × PPN
// ranks per node.
func (p params) tenantPPN() int {
	if p.ppn > 0 {
		return p.ppn
	}
	if p.full {
		return 4
	}
	return 2
}

func (p params) a2aSizes() []int {
	if p.full {
		return []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	return []int{8 << 10, 32 << 10, 128 << 10}
}

func (p params) fig15Sizes() []int {
	if p.full {
		return []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
	}
	return []int{4 << 10, 16 << 10, 64 << 10}
}

func (p params) stencilProblems() []int {
	if p.full {
		return []int{512, 1024, 2048}
	}
	return []int{256, 512, 1024}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: offloadbench <figure> [flags]
       offloadbench snap [-check] NAME|all [-o PATH]

figures:
  fig2     RDMA-write latency, host vs DPU posting
  fig3     RDMA-write bandwidth, normalized
  fig4     nonblocking pingpong, host vs staging offload
  fig5     cross-GVMI registration overheads
  fig11    3D stencil normalized overall time
  fig12    3D stencil overlap %
  fig13    Ialltoall overall time (4/8/16 nodes)
  fig14    Ialltoall overlap %
  fig15    scatter-destination: Simple vs Group primitives
  fig16a   P3DFFT normalized runtime, 8 nodes
  fig16b   P3DFFT normalized runtime, 16 nodes
  fig16c   P3DFFT single-phase compute/MPI profile
  fig17    HPL normalized runtime vs memory fraction (~15 min)
  ablation design-choice ablations (caches, mechanism, proxies)
  policy   offload-policy ablation: fixed datapaths vs adaptive vs measuring
           (-policy NAME restricts to one bundle)
  ext-bf3  future-work extension: BlueField-3 + NDR platform
  ext-allgather  Iallgather (ref [9] workload) across schemes
  chaos    Ialltoall under fault injection (rates 0, 1e-4, 1e-3, 1e-2)
  tenants  multi-tenant crossover: fg tail latency & aggregate goodput vs
           background bulk jobs on a shared single-worker proxy
  drift    mid-run drift: fg latency before/after chatty background tenants
           arrive and saturate the proxy (feedback policy re-routes)
  fleet    mixed-fleet policy comparison on a half-BF2/half-BF3 cluster:
           fixed paths vs capability-blind adaptive vs capability-aware
  all      everything above
  scale    fig13 collective shapes at 128/256/512/1024 ranks, validating the
           paper's ordering/overlap claims at scale (-maxranks N for a reduced
           prefix, -size/-ppn/-iters; -o PATH also writes the snapshot)
  snap NAME       regenerate one pinned baseline — fig13, tenants, drift, fleet,
                  scale (minutes) — into BENCH_NAME.json (-o PATH elsewhere); the
                  encoded file is validated before it is written. fleet validates
                  against the BENCH_fig13.json next to the file it writes
  snap all        every baseline but scale
  snap -check NAME|all   validate the checked-in file(s) without measuring
  critical-path   span-based critical path + latency attribution for the
                  fig13 Ialltoall loop and a chaos run (-ppn, -size, -seed)
  timeline        drift scenario with the virtual-time flight recorder: time
                  series per policy (-o prefix: .jsonl, .prom, per-policy
                  .trace.json), the drift-attribution table, and SLO summary

flags: -ppn N -iters N -warmup N -full -memgb N -nb N -seed N -size N
       -parallel N (sweep workers; 0 = all CPUs, 1 = serial; output identical at any value)
       -policy NAME (offload policy: gvmi|staged|bluesmpi|hostdirect|adaptive|aware|measure|feedback)
       -device NAME (device profile for every node: bf2|bf3|ipu-e2100|dsa-offpath;
                  "list" prints the capability matrix and exits)
       -fleet SPEC (per-node profiles "name[:count],...", e.g. bf2:2,bf3:2;
                  "help" prints the grammar and matrix and exits; overrides -device)
       -metrics PATH (export run metrics: JSON to PATH, Prometheus to PATH.prom)
       -spans PATH (export span trace: Chrome JSON to PATH, plus PATH.folded, PATH.jsonl)
       -timeseries PATH (record watched metrics as bucketed virtual-time series:
                  PATH.jsonl, PATH.prom; with -spans, counter tracks join the trace)
       -cpuprofile PATH / -memprofile PATH (pprof capture of the run)
       -o PATH (snap / scale / timeline output)`)
}
