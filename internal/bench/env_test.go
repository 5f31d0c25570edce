package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/coll"
	"repro/internal/datapath"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestBuildSchemesFrameworkPresence(t *testing.T) {
	t.Parallel()
	if e := Build(Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI}); e.Fw != nil {
		t.Fatal("host scheme must not build a framework")
	}
	if e := Build(Options{Nodes: 2, PPN: 1, Scheme: baseline.NameProposed}); e.Fw == nil {
		t.Fatal("proposed scheme needs a framework")
	}
	e := Build(Options{Nodes: 2, PPN: 1, Scheme: baseline.NameBluesMPI})
	if e.Fw == nil || e.Fw.Config().Path != datapath.KindStaged {
		t.Fatal("BluesMPI scheme must stage")
	}
	// A Core override forces a framework even for a host-named scheme.
	cfg := baseline.StagingNoWarmupConfig()
	if e := Build(Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI, Core: &cfg}); e.Fw == nil {
		t.Fatal("Core override must build a framework")
	}
	// An unknown scheme is refused like an unknown policy, not run
	// host-only under its name.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Proposed|BluesMPI|IntelMPI") {
			t.Fatalf(`Build with scheme "Nope" recovered %v; want a panic listing the schemes`, r)
		}
	}()
	Build(Options{Nodes: 2, PPN: 1, Scheme: "Nope"})
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
	// Proxies must have been shut down (no live daemons holding memory).
	if live := e.Cl.K.Live(); live != 0 {
		t.Fatalf("%d processes still live after Launch", live)
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
