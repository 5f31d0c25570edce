package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Every bundle, by name or paper label, builds the substrate it names:
// proxies for all but hostdirect, and an engine only for the bundles whose
// choice is not fixed. The same holds for each of the builder's placements,
// except that placed jobs always share a framework, with tenancy, and
// cannot run a bundle that needs another core.
func TestBuildSchemesFrameworkPresence(t *testing.T) {
	t.Parallel()
	fixed := []string{"bluesmpi", "gvmi", "hostdirect", "staged"}
	for _, name := range append(baseline.PolicyNames(), baseline.NameProposed, baseline.NameBluesMPI, baseline.NameIntelMPI) {
		b, err := baseline.PolicyBundle(name)
		if err != nil {
			t.Fatal(err)
		}
		e := Build(Options{Nodes: 2, PPN: 1, Scheme: name})
		if (e.Fw == nil) != (b.Name == "hostdirect") {
			t.Errorf("%s: framework built = %v", name, e.Fw != nil)
		}
		if e.Fw != nil && e.Fw.Config() != b.Core() {
			t.Errorf("%s: framework config %+v, want the bundle's %+v", name, e.Fw.Config(), b.Core())
		}
		if (e.Engines[0] == nil) != slices.Contains(fixed, b.Name) {
			t.Errorf("%s: engine built = %v", name, e.Engines[0] != nil)
		}
	}
	for _, scheme := range []string{"gvmi", "hostdirect", "adaptive"} {
		for _, c := range []struct {
			place  string
			worlds int
			spec   baseline.Spec
		}{
			{"one world", 1, baseline.Spec{Nodes: 2, PPN: 2, Scheme: scheme}},
			{"two jobs", 2, baseline.Spec{Nodes: 2, Jobs: []baseline.Job{{Name: "a", PPN: 1, Scheme: scheme}, {Name: "b", PPN: 1, Scheme: scheme}}}},
			{"bare sites", 0, baseline.Spec{Nodes: 2, PPN: 2, Scheme: scheme, Bare: true}},
		} {
			sys, err := baseline.Build(c.spec)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.place, scheme, err)
			}
			placed := c.spec.Jobs != nil
			if (sys.Fw != nil) != (placed || scheme != "hostdirect") {
				t.Errorf("%s, %s: framework built = %v", c.place, scheme, sys.Fw != nil)
			}
			if sys.Fw != nil && (sys.Fw.Tenancy() != nil) != placed {
				t.Errorf("%s, %s: tenancy set = %v", c.place, scheme, sys.Fw.Tenancy() != nil)
			}
			if len(sys.Worlds) != c.worlds || len(sys.Engines) != max(c.worlds, 1) {
				t.Errorf("%s, %s: %d worlds and %d engines", c.place, scheme, len(sys.Worlds), len(sys.Engines))
			}
			for j, eng := range sys.Engines {
				if (eng == nil) != (scheme != "adaptive") {
					t.Errorf("%s, %s: job %d engine built = %v", c.place, scheme, j, eng != nil)
				}
			}
			for g, site := range sys.Sites {
				want := fmt.Sprintf("rank%d", g)
				if placed { // job a owns slot 0 of each node, job b slot 1
					want = fmt.Sprintf("%c.rank%d", "ab"[g%2], g/2)
				}
				if got := site.Ctx.Name(); got != want {
					t.Errorf("%s, %s: site %d is %q, want %q", c.place, scheme, g, got, want)
				}
			}
			if _, err := sys.Run(); err != nil {
				t.Errorf("%s, %s: %v", c.place, scheme, err)
			}
		}
	}
	if _, err := baseline.Build(baseline.Spec{Nodes: 2, Jobs: []baseline.Job{{Name: "a", PPN: 1, Scheme: "bluesmpi"}}}); err == nil {
		t.Error("placed jobs ran bluesmpi, whose core they cannot share")
	}
	// A Core override forces a framework even for the host-only bundle.
	cfg := baseline.StagingNoWarmupConfig()
	if e := Build(Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI, Core: &cfg}); e.Fw == nil || e.Fw.Config() != cfg {
		t.Fatal("Core override must build a framework with its config")
	}
	// An unknown scheme is refused, not run host-only under its name.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprint(baseline.PolicyNames())) {
			t.Fatalf(`Build with scheme "Nope" recovered %v; want a panic listing the bundles`, r)
		}
	}()
	Build(Options{Nodes: 2, PPN: 1, Scheme: "Nope"})
}

// Options.Core overrides the bundle's configuration: the paper's Proposed
// run on the staging preset is the staged bundle, field for field.
func TestCoreOverrideMatchesStagedBundle(t *testing.T) {
	t.Parallel()
	staging := baseline.StagingNoWarmupConfig()
	a := MeasureIalltoall(Options{Nodes: 2, PPN: 2, Scheme: baseline.NameProposed, Core: &staging}, 32<<10, 1, 2)
	b := MeasureIalltoall(Options{Nodes: 2, PPN: 2, Scheme: "staged"}, 32<<10, 1, 2)
	a.Scheme, b.Scheme = "", "" // backend label, not a measurement
	if a != b {
		t.Errorf("Proposed on the staging core diverges from the staged bundle:\noverride: %+v\nstaged:   %+v", a, b)
	}
}

func TestLaunchBindsBackendsAndStopsProxies(t *testing.T) {
	t.Parallel()
	e := Build(Options{Nodes: 2, PPN: 2, Scheme: baseline.NameProposed})
	names := make([]string, e.Cl.Cfg.NP())
	e.Launch(func(r *mpi.Rank, ops coll.Ops, p2p coll.P2P) {
		names[r.RankID()] = ops.Name() + "/" + p2p.Name()
	})
	for i, n := range names {
		if n != baseline.NameProposed+"/"+baseline.NameProposed {
			t.Fatalf("rank %d backends %q", i, n)
		}
	}
	// The proxies are no processes: once the ranks are done nothing is live,
	// and no proxy step is left pending in the retired kernel.
	if live, pending := e.Cl.K.Live(), e.Cl.K.Pending(); live != 0 || pending != 0 {
		t.Fatalf("%d processes live and %d events pending after Launch, want none", live, pending)
	}
}

func TestOverlapPctFormula(t *testing.T) {
	t.Parallel()
	cases := []struct {
		pure, comp, overall sim.Time
		want                float64
	}{
		{100, 100, 100, 100}, // perfect overlap
		{100, 100, 200, 0},   // fully serialized
		{100, 100, 150, 50},
		{100, 100, 300, 0}, // clamped at 0
		{0, 0, 10, 0},      // degenerate
	}
	for _, c := range cases {
		if got := OverlapPct(c.pure, c.comp, c.overall); got != c.want {
			t.Fatalf("OverlapPct(%v,%v,%v) = %v, want %v", c.pure, c.comp, c.overall, got, c.want)
		}
	}
}

func TestSizeLabel(t *testing.T) {
	t.Parallel()
	cases := map[int]string{100: "100", 1024: "1K", 65536: "64K", 1 << 20: "1M", 3 << 20: "3M"}
	for in, want := range cases {
		if got := SizeLabel(in); got != want {
			t.Fatalf("SizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPow2Sizes(t *testing.T) {
	t.Parallel()
	got := Pow2Sizes(4, 64)
	want := []int{4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("Pow2Sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pow2Sizes = %v", got)
		}
	}
}

func TestTableFprint(t *testing.T) {
	t.Parallel()
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"T", "a", "bb", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureIbcastAndIallgather(t *testing.T) {
	t.Parallel()
	for _, scheme := range []string{baseline.NameIntelMPI, baseline.NameProposed} {
		opt := Options{Nodes: 2, PPN: 2, Scheme: scheme}
		b := MeasureIbcast(opt, 32<<10, 1, 2)
		g := MeasureIallgather(opt, 8<<10, 1, 2)
		if b.PureComm <= 0 || g.PureComm <= 0 {
			t.Fatalf("%s: zero latency: %+v %+v", scheme, b, g)
		}
		if b.Overlap < 0 || b.Overlap > 100 {
			t.Fatalf("%s: overlap out of range", scheme)
		}
	}
	// Exact timings at the fig13 guard shape (2 nodes x 4 PPN, warmup 1,
	// iters 2): no BENCH_*.json covers these two loops, so the shared
	// overlap loop is pinned here for them.
	pinned := []struct {
		scheme                        string
		gPure, gOverall, bPure, bOver sim.Time
	}{
		{baseline.NameProposed, 49723, 51168, 34180, 34260},
		{baseline.NameIntelMPI, 26132, 51294, 19854, 31411},
	}
	for _, w := range pinned {
		opt := Options{Nodes: 2, PPN: 4, Scheme: w.scheme}
		g := MeasureIallgather(opt, 8<<10, 1, 2)
		b := MeasureIbcast(opt, 32<<10, 1, 2)
		if g.PureComm != w.gPure || g.Compute != w.gPure || g.Overall != w.gOverall {
			t.Errorf("%s Iallgather pure/compute/overall = %d/%d/%d, want %d/%d/%d",
				w.scheme, g.PureComm, g.Compute, g.Overall, w.gPure, w.gPure, w.gOverall)
		}
		if b.PureComm != w.bPure || b.Compute != w.bPure || b.Overall != w.bOver {
			t.Errorf("%s Ibcast pure/compute/overall = %d/%d/%d, want %d/%d/%d",
				w.scheme, b.PureComm, b.Compute, b.Overall, w.bPure, w.bPure, w.bOver)
		}
	}
	// The offloaded broadcast must overlap where the host one cannot.
	host := MeasureIbcast(Options{Nodes: 4, PPN: 1, Scheme: baseline.NameIntelMPI}, 256<<10, 1, 2)
	off := MeasureIbcast(Options{Nodes: 4, PPN: 1, Scheme: baseline.NameProposed}, 256<<10, 1, 2)
	if off.Overlap <= host.Overlap {
		t.Fatalf("offloaded Ibcast overlap %.1f <= host %.1f", off.Overlap, host.Overlap)
	}
}

func TestMicroMeasurementsSane(t *testing.T) {
	t.Parallel()
	rows := MeasureRDMALatency(SweepEnv{}, []int{8, 1024}, 3)
	if len(rows) != 2 || rows[0].HostDPU <= rows[0].HostHost {
		t.Fatalf("latency rows wrong: %+v", rows)
	}
	bw := MeasureRDMABandwidth(SweepEnv{}, []int{4096}, 16, 2)
	if bw[0].Normalized <= 0 || bw[0].Normalized >= 1 {
		t.Fatalf("small-message normalized bandwidth %v", bw[0].Normalized)
	}
	regs := MeasureRegistration([]int{4096, 65536})
	if regs[1].HostReg <= regs[0].HostReg || regs[1].CrossReg <= regs[1].HostReg {
		t.Fatalf("registration rows wrong: %+v", regs)
	}
	pp := MeasurePingpongNB(Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI}, 32<<10, 1, 2)
	if pp <= 0 {
		t.Fatal("pingpong zero")
	}
}

func TestScatterDestSimpleVsGroupRuns(t *testing.T) {
	t.Parallel()
	opt := Options{Nodes: 2, PPN: 2, Scheme: baseline.NameProposed}
	s := MeasureScatterDest(opt, 8<<10, 1, 1, true)
	g := MeasureScatterDest(opt, 8<<10, 1, 1, false)
	if s.PureComm <= 0 || g.PureComm <= 0 {
		t.Fatalf("zero latencies: %v %v", s.PureComm, g.PureComm)
	}
}
