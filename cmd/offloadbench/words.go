package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/tenant"
)

// The shared-flag tails of the table. built: the word's runs build their
// clusters with bench.Build (so -device applies and the exports record
// them) and sweep them with SweepEnv.Sweep (-parallel). omb: what the
// OSU-style collective words read.
const (
	built = " metrics spans timeseries parallel device"
	omb   = "nodes ppn min max warmup iters policy metrics spans timeseries device fleet"
)

// words is the table: dispatch, the `all` word and the usage text all come
// from it, so a word and the flags it reads are written down once.
var words = []word{
	{name: "fig2", help: "RDMA-write latency, host vs DPU posting", reads: "iters full parallel", all: true,
		run: func(p *params, out io.Writer) error { return show(out, figures.Fig2(p.env, p.it(20))) }},
	{name: "fig3", help: "RDMA-write bandwidth, normalized", reads: "iters full parallel", all: true,
		run: func(p *params, out io.Writer) error { return show(out, figures.Fig3(p.env, 64, p.it(4))) }},
	{name: "fig4", help: "nonblocking pingpong, host vs staging offload", reads: "warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error { return show(out, figures.Fig4(p.env, p.warmup, p.it(10))) }},
	{name: "fig5", help: "cross-GVMI registration overheads", all: true,
		run: func(p *params, out io.Writer) error { return show(out, figures.Fig5()) }},
	{name: "fig11", help: "3D stencil normalized overall time", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error { return show(out, p.stencil()[0]) }},
	{name: "fig12", help: "3D stencil overlap %", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error { return show(out, p.stencil()[1]) }},
	{name: "fig13", help: "Ialltoall overall time (4/8/16 nodes)", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error { return show(out, p.alltoall()[0]...) }},
	{name: "fig14", help: "Ialltoall overlap %", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error { return show(out, p.alltoall()[1]...) }},
	{name: "fig15", help: "scatter-destination: Simple vs Group primitives", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error {
			sizes := scaled(p.full, []int{4 << 10, 16 << 10, 64 << 10}, []int{1 << 10, 4 << 10, 16 << 10, 64 << 10})
			return show(out, figures.Fig15(p.env, 8, p.a2aPPN(), sizes, p.warmup, p.it(3), true))
		}},
	{name: "fig16a", help: "P3DFFT normalized runtime, 8 nodes", reads: "ppn iters full" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.Fig16(p.env, 8, p.a2aPPN(), 256, []int{512, 1024, 2048}, p.it(2)))
		}},
	{name: "fig16b", help: "P3DFFT normalized runtime, 16 nodes", reads: "ppn iters full" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.Fig16(p.env, 16, p.a2aPPN(), 512, []int{1024, 2048, 4096}, p.it(2)))
		}},
	{name: "fig16c", help: "P3DFFT single-phase compute/MPI profile", reads: "ppn iters full" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.Fig16C(p.env, 8, p.a2aPPN(), 256, 512, p.it(2)))
		}},
	{name: "fig17", help: "HPL normalized runtime vs memory fraction (~15 min)", reads: "ppn full memgb nb" + built, all: true,
		run: func(p *params, out io.Writer) error {
			// 16 PPN and 16 GB/node keep the broadcast-vs-update race of the
			// paper's 32 PPN, 256 GB/node runs while finishing in minutes.
			ppn, memGB := cmp.Or(p.ppn, scaled(p.full, 16, 32)), cmp.Or(p.memGB, scaled(p.full, 16, 256))
			return show(out, figures.Fig17(p.env, 16, ppn, memGB, cmp.Or(p.nb, 256), []int{5, 10, 25, 50, 75}))
		}},
	{name: "ablation", help: "design-choice ablations (caches, mechanism, proxies)", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.Ablations(p.env, p.a2aPPN(), p.warmup, p.it(2))...)
		}},
	{name: "policy", help: "offload-policy ablation: fixed datapaths vs adaptive vs measuring (-policy NAME: one bundle)",
		reads: "ppn warmup iters full policy" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.PolicyAblation(p.env, 4, p.a2aPPN(), p.a2aSizes(), p.warmup, p.it(2), p.cf.Policy))
		}},
	{name: "ext-bf3", help: "future-work extension: BlueField-3 + NDR platform",
		reads: "ppn warmup iters full metrics spans timeseries parallel", all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.ExtBF3(p.env, 4, p.a2aPPN(), p.a2aSizes(), p.warmup, p.it(2)))
		}},
	{name: "ext-allgather", help: "Iallgather (ref [9] workload) across schemes", reads: "ppn warmup iters full" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.ExtIallgather(p.env, 4, p.a2aPPN(), p.a2aSizes(), p.warmup, p.it(2)))
		}},
	{name: "chaos", help: "Ialltoall under fault injection (rates 0, 1e-4, 1e-3, 1e-2)", reads: "ppn warmup iters full seed size" + built, all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.FigChaos(p.env, 2, p.a2aPPN(), p.seed, figures.ChaosRates, cmp.Or(p.size, 32<<10), p.warmup, p.it(2)))
		}},
	{name: "tenants", help: "multi-tenant crossover: fg tail latency & goodput vs background bulk jobs on one proxy worker",
		reads: "ppn iters full metrics spans parallel", all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.Tenants(p.env, 2, p.tenantPPN(), p.it(8)))
		}},
	{name: "drift", help: "mid-run drift: fg latency before/after chatty tenants saturate the proxy (feedback re-routes)",
		reads: "ppn iters full metrics spans parallel", all: true,
		run: func(p *params, out io.Writer) error {
			return show(out, figures.Drift(p.env, 2, p.tenantPPN(), p.it(80)), figures.DriftAttribution(p.env, 2, p.tenantPPN(), p.it(80)))
		}},
	{name: "fleet", help: "mixed half-bf2/half-bf3 fleet: fixed paths vs capability-blind vs capability-aware policies",
		reads: "spans timeseries parallel",
		run:   func(p *params, out io.Writer) error { return show(out, figures.FleetTable(bench.MeasureFleet(p.env))) }},
	{name: "scale", help: "fig13 shapes at 128..1024 ranks, validating the ordering/overlap claims (-o: also the snapshot)",
		reads: "ppn iters size maxranks o" + built, run: runScale},
	{name: "critical-path", help: "span critical path + latency attribution of the fig13 Ialltoall loop and a chaos run",
		reads: "ppn warmup iters full seed size metrics timeseries device", run: criticalPath},
	{name: "timeline", help: "drift under the flight recorder: -o prefix .jsonl/.prom/.<policy>.trace.json, attribution, SLOs",
		reads: "ppn iters full o parallel", run: runTimeline},
	{name: "snap", help: "[-check] NAME|all: regenerate (-check: validate) BENCH_NAME.json, NAME = " + baselineNames() + "; all skips scale",
		reads: "o parallel", check: snapCheck, run: runSnap},
	{name: "omb pingpong", help: "OSU-style nonblocking pingpong latency, 2 nodes x 1 rank",
		reads: "min max warmup iters policy metrics spans timeseries device fleet",
		check: func(p *params) error { p.nodes, p.ppn = 2, 1; return p.ombCheck() }, run: ombPingpong},
	{name: "omb ialltoall", help: "OSU-style NBC alltoall: pure, overall, overlap%", reads: omb,
		check: (*params).ombCheck, run: ombNBC(bench.MeasureIalltoall, "Ialltoall")},
	{name: "omb iallgather", help: "OSU-style NBC allgather", reads: omb,
		check: (*params).ombCheck, run: ombNBC(bench.MeasureIallgather, "Iallgather")},
	{name: "omb ibcast", help: "OSU-style NBC broadcast", reads: omb,
		check: (*params).ombCheck, run: ombNBC(bench.MeasureIbcast, "Ibcast")},
	{name: "omb tenants", help: "fg Ialltoall latency vs 0..-bgjobs background bulk jobs on one proxy worker per node",
		reads: "nodes ppn iters bgjobs policy metrics spans timeseries parallel", check: (*params).ombCheck, run: ombTenants},
	{name: "omb drift", help: "fg latency before/after chatty background tenants arrive on a FIFO proxy",
		reads: "nodes ppn iters policy metrics spans timeseries", check: (*params).ombCheck, run: ombDrift},
	{name: "pattern", help: "offload a user-defined pattern (-file) or a preset; -tenants N replays it as N jobs",
		reads: "file preset np size nodes ppn noregcache nogroupcache compute calls verify tenants bgstart policy metrics spans timeseries",
		check: (*params).patternCheck, run: runPattern},
}

// show prints a word's tables.
func show(out io.Writer, ts ...*bench.Table) error {
	for _, t := range ts {
		t.Fprint(out)
	}
	return nil
}

// it picks the iteration count: -iters, or def (three times def under -full).
func (p *params) it(def int) int { return cmp.Or(p.iters, scaled(p.full, def, 3*def)) }

// scaled picks the default for the run's scale: full under -full.
func scaled[T any](isFull bool, def, full T) T {
	if isFull {
		return full
	}
	return def
}

// a2aPPN is the PPN of the alltoall and application runs (paper: 32).
func (p *params) a2aPPN() int { return cmp.Or(p.ppn, scaled(p.full, 8, 32)) }

// tenantPPN is the per-job PPN of the multi-tenant sweep: every job places
// this many ranks on every node, so the shared proxy serves jobs × PPN
// ranks per node.
func (p *params) tenantPPN() int { return cmp.Or(p.ppn, scaled(p.full, 2, 4)) }

// a2aSizes are the message sizes of the alltoall sweeps.
func (p *params) a2aSizes() []int {
	return scaled(p.full, []int{8 << 10, 32 << 10, 128 << 10}, []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20})
}

// stencil runs the one sweep behind Figures 11 and 12.
func (p *params) stencil() [2]*bench.Table {
	t11, t12 := figures.Fig11And12(p.env, 16, p.a2aPPN(), p.warmup, p.it(3), scaled(p.full, []int{256, 512, 1024}, []int{512, 1024, 2048}))
	return [2]*bench.Table{t11, t12}
}

// alltoall runs the one sweep behind Figures 13 and 14.
func (p *params) alltoall() [2][]*bench.Table {
	t13, t14 := figures.Fig13And14(p.env, []int{4, 8, 16}, p.a2aPPN(), p.a2aSizes(), p.warmup, p.it(2))
	return [2][]*bench.Table{t13, t14}
}

func baselineNames() string {
	var names []string
	for _, b := range bench.Baselines {
		names = append(names, b.Name)
	}
	return strings.Join(names, "|")
}

// snapCheck rejects an unknown baseline name, and -o with `snap all`.
func snapCheck(p *params) error {
	if _, ok := bench.FindBaseline(p.snapName); !ok && p.snapName != "all" {
		return fmt.Errorf("no baseline %q", p.snapName)
	}
	if p.snapName == "all" && p.out != "" {
		return errors.New("snap all: -o names one file")
	}
	return nil
}

// runSnap writes (or with -check validates) the named pinned baselines.
func runSnap(p *params, out io.Writer) error {
	rows := bench.Baselines
	if b, ok := bench.FindBaseline(p.snapName); ok {
		rows = []bench.Baseline{b}
	}
	verb, do := "wrote", func(b bench.Baseline, path string) (string, error) {
		// Only the worker count reaches a pinned snapshot: no CLI sink.
		return b.Write(path, b.Measure(bench.SweepEnv{Parallel: p.env.Parallel}, p.errOut))
	}
	if p.snapCheck {
		verb, do = "checked", bench.Baseline.CheckFile
	}
	for _, b := range rows {
		if b.Slow && p.snapName == "all" && !p.snapCheck {
			continue
		}
		path := cmp.Or(p.out, b.File)
		summary, err := do(b, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s %s (%s)\n", verb, path, summary)
	}
	return nil
}

// runScale measures the scaling sweep (optionally a reduced prefix or a
// different shape), validates the fig-shape claims and prints the table.
// It writes a snapshot only when asked to with -o; the checked-in
// BENCH_scale.json is `snap scale`'s.
func runScale(p *params, out io.Writer) error {
	cfg := bench.DefaultScaleConfig()
	cfg.PPN, cfg.Size, cfg.Iters = cmp.Or(p.ppn, cfg.PPN), cmp.Or(p.size, cfg.Size), cmp.Or(p.iters, cfg.Iters)
	if p.maxRanks > 0 {
		all := cfg.Ranks
		cfg.Ranks = slices.DeleteFunc(slices.Clone(all), func(r int) bool { return r > p.maxRanks })
		if len(cfg.Ranks) == 0 {
			return fmt.Errorf("scale: -maxranks %d keeps no rank count of %v", p.maxRanks, all)
		}
	}
	t0 := time.Now()
	snap, fp := bench.MeasureScale(p.env, cfg)
	wall := time.Since(t0)
	if err := snap.Validate(); err != nil {
		return err
	}
	figures.ScaleTable(snap).Fprint(out)
	fmt.Fprintf(out, "%d rank counts up to %d, claims validated, %s wall\n",
		len(snap.Series), snap.Series[len(snap.Series)-1].Ranks, wall.Round(time.Millisecond))
	fmt.Fprintln(p.errOut, fp)
	if p.out == "" {
		return nil
	}
	row, _ := bench.FindBaseline("scale")
	if _, err := row.Write(p.out, snap); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", p.out)
	return nil
}

// runTimeline runs the drift scenario for every foreground policy with the
// virtual-time flight recorder attached (and span tracing for the two
// policies whose gap is the re-route win), exports the time series, and
// prints the drift-attribution table plus a per-policy SLO summary.
func runTimeline(p *params, out io.Writer) error {
	path := cmp.Or(p.out, "TIMELINE")
	policies := []string{"gvmi", "hostdirect", "measure", "feedback"}
	spansFor := map[string]bool{"measure": true, "feedback": true}
	runs := bench.CollectDriftTimelines(p.env, 2, p.tenantPPN(), p.it(80), policies, spansFor)

	recs := make([]*telemetry.Recorder, len(runs))
	for i := range runs {
		recs[i] = runs[i].Rec
	}
	err := bench.WriteFile(path+".jsonl", func(w io.Writer) error { return telemetry.WriteJSONL(w, recs...) })
	if err == nil {
		err = bench.WriteFile(path+".prom", func(w io.Writer) error { return telemetry.WritePrometheusTS(w, recs...) })
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "timeseries: %s.jsonl, %s.prom (%d runs)\n", path, path, len(runs))

	var atts []bench.DriftAttribution
	for _, run := range runs {
		if run.Spans == nil {
			continue
		}
		// One trace per traced policy: the policy's span tracks plus its
		// recorder's counter tracks in a single Chrome trace file.
		trace := fmt.Sprintf("%s.%s.trace.json", path, run.Policy)
		sc, extra := run.Spans, run.Rec.ChromeCounterLines()
		if err := bench.WriteFile(trace, func(w io.Writer) error { return sc.WriteChromeTraceWith(w, extra) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %s (%d spans, %d counter samples)\n", trace, sc.Len(), len(extra))
		a, err := bench.AttributeDrift(run)
		if err != nil {
			return err
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
	return nil
}

// criticalPath runs the fig13 Ialltoall loop plus a chaos run with span
// collection on, and prints a representative critical path and the
// per-layer latency-attribution table for each.
func criticalPath(p *params, out io.Writer) error {
	opt := bench.Options{Nodes: 2, PPN: p.a2aPPN(), Scheme: baseline.NameProposed}
	size := cmp.Or(p.size, 32<<10)

	fmt.Fprintf(out, "=== critical path: ialltoall np=%d size=%d (proposed) ===\n",
		opt.Nodes*opt.PPN, size)
	sc, r := bench.CollectSpans(p.env.Attach(opt), size, p.warmup, p.it(2))
	printAttribution(out, sc)
	fmt.Fprintf(out, "pure_comm=%s overall=%s\n\n", r.PureComm, r.Overall)

	fmt.Fprintf(out, "=== critical path: ialltoall under chaos (rate 1e-3, seed %d) ===\n", p.seed)
	copt := p.env.Attach(opt)
	copt.Fault = fault.Scaled(p.seed, 1e-3)
	csc, cr := bench.CollectChaosSpans(copt, 1e-3, size, p.warmup, p.it(2))
	printAttribution(out, csc)
	fmt.Fprintf(out, "overall=%s verified=%v retries=%d\n", cr.Overall, cr.Verified, cr.Fault.Retries)
	return nil
}

// printAttribution prints the critical path of the last completed
// collective root (the steady-state iteration) and the attribution table
// aggregated over every collective root.
func printAttribution(out io.Writer, sc *span.Collector) {
	roots := sc.RootsNamed("coll", "ialltoall")
	if len(roots) == 0 {
		fmt.Fprintln(out, "no collective roots recorded")
		return
	}
	fmt.Fprint(out, sc.FormatPath(roots[len(roots)-1]))
	var total sim.Time
	for _, id := range roots {
		if s, ok := sc.Get(id); ok && s.Ended {
			total += s.Dur()
		}
	}
	fmt.Fprintf(out, "\nattribution over %d roots:\n%s", len(roots),
		span.FormatAttribution(sc.Attribution(roots), total))
}

// maxRanks bounds nodes x ppn of the words that size a cluster from flags:
// the count is input, not an allocation to trust (pattern specs' bound).
const maxRanks = pattern.MaxRanks

// ombCheck resolves the OSU-style words' defaults (4 nodes x 8 PPN, 3
// iterations) and rejects what they cannot run: more than maxRanks ranks
// (-bgjobs + 1 jobs of them for tenants) or a size range bench.Pow2Sizes
// cannot walk. The -policy name and the -fleet spec (against the node
// count) are checked after it, by CommonFlags.Check.
func (p *params) ombCheck() error {
	p.nodes, p.ppn, p.iters = cmp.Or(p.nodes, 4), cmp.Or(p.ppn, 8), cmp.Or(p.iters, 3)
	switch {
	case p.nodes > maxRanks/p.ppn:
		return fmt.Errorf("%d nodes x %d PPN is more than %d ranks", p.nodes, p.ppn, maxRanks)
	case p.fs.Lookup("bgjobs") != nil && p.bgJobs >= maxRanks/(p.nodes*p.ppn):
		return fmt.Errorf("-bgjobs %d: with the foreground, jobs of %d ranks each are more than %d ranks", p.bgJobs, p.nodes*p.ppn, maxRanks)
	case p.minSize > p.maxSize || p.maxSize > 1<<30:
		return fmt.Errorf("want -min <= -max <= 1G, got %d and %d", p.minSize, p.maxSize)
	}
	return nil
}

// backend labels a run: the -policy bundle when one is set, the paper's
// Proposed otherwise.
func (p *params) backend() string {
	if p.cf.Policy != "" {
		return "policy=" + p.cf.Policy
	}
	return baseline.NameProposed
}

func (p *params) ombOptions() bench.Options {
	return bench.Options{Nodes: p.nodes, PPN: p.ppn, Scheme: cmp.Or(p.cf.Policy, baseline.NameProposed)}
}

// ombNBC is the run of one nonblocking-collective word: per size, the pure
// communication time, the overlapped compute, the overall time and the
// overlap.
func ombNBC(measure func(bench.Options, int, int, int) bench.NBCResult, title string) func(*params, io.Writer) error {
	return func(p *params, out io.Writer) error {
		fmt.Fprintf(out, "# OMB %s, %d nodes x %d PPN, %s (virtual time)\n", title, p.nodes, p.ppn, p.backend())
		fmt.Fprintf(out, "%-10s %14s %14s %14s %9s\n", "size", "pure (us)", "compute (us)", "overall (us)", "overlap")
		for _, size := range bench.Pow2Sizes(p.minSize, p.maxSize) {
			r := measure(p.env.Attach(p.ombOptions()), size, p.warmup, p.iters)
			fmt.Fprintf(out, "%-10s %14.2f %14.2f %14.2f %8.1f%%\n",
				bench.SizeLabel(size), r.PureComm.Micros(), r.Compute.Micros(), r.Overall.Micros(), r.Overlap)
		}
		return nil
	}
}

func ombPingpong(p *params, out io.Writer) error {
	fmt.Fprintf(out, "# Nonblocking pingpong (us), %s\n", p.backend())
	fmt.Fprintf(out, "%-10s %12s\n", "size", "latency")
	for _, size := range bench.Pow2Sizes(p.minSize, p.maxSize) {
		lat := bench.MeasurePingpongNB(p.env.Attach(p.ombOptions()), size, p.warmup, p.iters)
		fmt.Fprintf(out, "%-10s %12.2f\n", bench.SizeLabel(size), lat.Micros())
	}
	return nil
}

func ombTenants(p *params, out io.Writer) error {
	pol := cmp.Or(p.cf.Policy, "gvmi")
	fmt.Fprintf(out, "# Multi-tenant: foreground Ialltoall vs background bulk jobs, %d nodes x %d PPN/job, fg policy=%s, 1 proxy/DPU\n",
		p.nodes, p.ppn, pol)
	fmt.Fprintf(out, "%-8s %14s %14s %14s %14s\n", "bg jobs", "fg p50 (us)", "fg p99 (us)", "goodput GB/s", "makespan (us)")
	results, errs := make([]*tenant.Result, p.bgJobs+1), make([]error, p.bgJobs+1)
	p.env.Sweep(p.bgJobs+1, func(i int, env bench.SweepEnv) {
		cfg := bench.TenantsCase(p.nodes, p.ppn, i, pol, p.iters)
		cfg.Metrics, cfg.Spans = env.Met, env.Sp
		cfg.Timeline = env.Tl.NewRecorder(fmt.Sprintf("bg%d", i))
		results[i], errs[i] = tenant.Run(cfg)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, r := range results {
		fg := r.Job("fg")
		fmt.Fprintf(out, "%-8d %14.2f %14.2f %14.2f %14.2f\n",
			i, fg.P50.Micros(), fg.P99.Micros(), r.GoodputGBps(), r.Makespan.Micros())
	}
	return nil
}

func ombDrift(p *params, out io.Writer) error {
	pol := cmp.Or(p.cf.Policy, "feedback")
	fmt.Fprintf(out, "# Drift: foreground Ialltoall latency before/after chatty background tenants arrive, %d nodes x %d PPN/job, fg policy=%s, 1 FIFO proxy/DPU\n",
		p.nodes, p.ppn, pol)
	cfg := bench.DriftCase(p.nodes, p.ppn, p.iters, pol)
	cfg.Metrics, cfg.Spans = p.env.Met, p.env.Sp
	cfg.Timeline = p.env.Tl.NewRecorder("")
	r, err := tenant.Run(cfg)
	if err != nil {
		return fmt.Errorf("drift: %w", err)
	}
	pre, post := bench.SplitDrift(r.Job("fg").Samples, bench.DriftArrival, bench.DriftSettle)
	fmt.Fprintf(out, "%-8s %8s %14s %14s\n", "window", "iters", "p50 (us)", "p99 (us)")
	row := func(name string, ds []sim.Time) {
		fmt.Fprintf(out, "%-8s %8d %14.2f %14.2f\n", name, len(ds), bench.Percentile(ds, 50).Micros(), bench.Percentile(ds, 99).Micros())
	}
	row("pre", pre)
	row("post", post)
	fmt.Fprintf(out, "re-probe decisions: %d\n", r.Metrics.CounterT("policy", pol, "reason_reprobe", "fg").Value())
	return nil
}

// presets are the built-in patterns of `pattern -preset`.
var presets = []string{"ring", "alltoall", "neighbor"}

// patternCheck resolves the pattern word's defaults and the core config its
// single run uses — the -policy bundle's (the default gvmi core without
// one) with the two cache flags applied — and refuses the flags the chosen
// mode cannot honour: -file takes no preset shape, -tenants replicates the
// pattern on the shared proposed core, and only the tenant runner staggers
// arrivals or samples a time series.
func (p *params) patternCheck() error {
	p.ppn, p.size, p.calls = cmp.Or(p.ppn, 8), cmp.Or(p.size, 64<<10), max(p.calls, 1)
	switch {
	case p.file == "" && !slices.Contains(presets, p.preset):
		return fmt.Errorf("need -file or -preset (%s)", strings.Join(presets, "|"))
	case p.np < 1 || p.np > maxRanks || p.ppn > maxRanks || p.nodes > maxRanks/p.ppn:
		return fmt.Errorf("want 1 <= -np, -ppn and -nodes x -ppn <= %d", maxRanks)
	case p.compute < 0 || p.bgStart < 0:
		return errors.New("-compute and -bgstart must not be negative")
	}
	if err := bench.RejectFlags(p.fs, "pattern -file", "preset", "np", "size"); p.file != "" && err != nil {
		return err
	}
	if p.tenants > 1 {
		// Each job spans the run's nodes: -nodes, or as many as a preset's
		// -np fills (a -file spec, unread until the run, fills at least one).
		np := p.np
		if p.file != "" {
			np = 1
		}
		if jobRanks := p.ppn * cmp.Or(p.nodes, (np+p.ppn-1)/p.ppn); p.tenants > maxRanks/jobRanks {
			return fmt.Errorf("-tenants %d: jobs of %d ranks each are more than %d ranks", p.tenants, jobRanks, maxRanks)
		}
		return bench.RejectFlags(p.fs, "pattern -tenants (one shared proposed core)", "noregcache", "nogroupcache", "compute", "verify")
	}
	if err := bench.RejectFlags(p.fs, "pattern without -tenants", "timeseries", "bgstart"); err != nil {
		return err
	}
	p.core = core.DefaultConfig()
	if pol := p.cf.Policy; pol != "" {
		b, _ := baseline.PolicyBundle(pol)
		if b.Core == nil {
			return fmt.Errorf("-policy %s names no bundle that runs on proxies, and patterns always do", pol)
		}
		p.core = b.Core()
	}
	// The flags only disable: a cache the bundle runs without stays off.
	p.core.RegCaches = p.core.RegCaches && !p.noRegCache
	p.core.GroupCache = p.core.GroupCache && !p.noGroupCache
	return nil
}

// runPattern offloads the pattern once per call on a fresh cluster and
// reports completion times, the data check and the framework statistics.
func runPattern(p *params, out io.Writer) error {
	spec, err := p.loadSpec()
	if err != nil {
		return err
	}
	if p.tenants > 1 {
		return p.patternTenants(spec, out)
	}
	res, err := pattern.Run(spec, pattern.RunOptions{Spec: baseline.Spec{
		Nodes: p.nodes, PPN: p.ppn, Scheme: p.cf.Policy, Core: &p.core, Backed: p.verify,
		Metrics: p.env.Met, Spans: p.env.Sp,
	}, Compute: sim.Time(p.compute), Calls: p.calls})
	if err != nil {
		return err
	}
	mode := "mechanism=" + p.core.Path.String()
	if p.cf.Policy != "" {
		mode = "policy=" + p.cf.Policy
	}
	fmt.Fprintf(out, "pattern: %d ranks, %d ops, %s regcache=%v groupcache=%v calls=%d\n",
		res.NRanks, len(spec.Ops), mode, p.core.RegCaches, p.core.GroupCache, p.calls)
	for r, t := range res.PerRank {
		fmt.Fprintf(out, "  rank %-3d done at %v\n", r, t)
	}
	fmt.Fprintf(out, "slowest rank: %v\n", res.Last)
	if p.verify {
		status := "OK"
		if !res.DataOK {
			status = "CORRUPTED"
		}
		fmt.Fprintf(out, "data integrity: %s (%d receives checked)\n", status, res.DataChecks)
	}
	fmt.Fprintf(out, "stats: %v\n", res.Stats)
	return nil
}

// patternTenants replays the pattern as -tenants concurrent jobs on one
// shared cluster with a single proxy worker per node, reporting per-tenant
// call latencies and the aggregate makespan. A non-zero -bgstart staggers
// the jobs: job i sleeps i x bgstart before its first call, so later
// tenants arrive mid-run from the earlier tenants' point of view (the drift
// that feedback policies re-probe under).
func (p *params) patternTenants(spec *pattern.Spec, out io.Writer) error {
	pol := cmp.Or(p.cf.Policy, "gvmi")
	nodes := cmp.Or(p.nodes, (spec.NRanks+p.ppn-1)/p.ppn)
	jobs := make([]tenant.JobSpec, p.tenants)
	for i := range jobs {
		jobs[i] = tenant.JobSpec{Name: fmt.Sprintf("t%d", i), PPN: p.ppn, Policy: pol,
			Workload: tenant.Workload{Kind: tenant.Pattern, Spec: spec, Iters: p.calls, Warmup: -1,
				Start: sim.Time(i) * sim.Time(p.bgStart)}}
	}
	res, err := tenant.Run(tenant.Config{Nodes: nodes, ProxiesPerDPU: 1, Jobs: jobs,
		Metrics: p.env.Met, Spans: p.env.Sp, Timeline: p.env.Tl.NewRecorder("")})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tenants: %d jobs x %d ranks, %d ops each, policy=%s, %d nodes, 1 proxy/DPU, calls=%d\n",
		p.tenants, spec.NRanks, len(spec.Ops), pol, nodes, p.calls)
	for _, jr := range res.Jobs {
		fmt.Fprintf(out, "  job %-4s p50=%v p99=%v finish=%v\n", jr.Name, jr.P50, jr.P99, jr.Finish)
	}
	fmt.Fprintf(out, "makespan: %v, aggregate goodput: %.2f GB/s\n", res.Makespan, res.GoodputGBps())
	return nil
}

func (p *params) loadSpec() (*pattern.Spec, error) {
	switch {
	case p.file == "-":
		return pattern.Parse(os.Stdin)
	case p.file != "":
		f, err := os.Open(p.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pattern.Parse(f)
	case p.preset == "ring":
		return pattern.Ring(p.np, p.size), nil
	case p.preset == "alltoall":
		return pattern.Alltoall(p.np, p.size), nil
	}
	return pattern.Neighbor(p.np, p.size), nil
}
