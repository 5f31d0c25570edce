package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/span"
)

// cannedStacks is a hand-made profile (leaf first) covering every branch of
// the attribution rule and every inclusive cut.
var cannedStacks = []stackSample{
	// Kernel stepping: sim owns it.
	{Value: 40, Stack: []string{"repro/internal/sim.(*Kernel).hpop", "repro/internal/sim.(*Kernel).step", "repro/internal/sim.(*Kernel).Run", "repro/internal/bench.(*Env).Launch", "main.runChild", "main.main"}},
	// A map access made by core: core owns it, and it counts in the map cut.
	{Value: 20, Stack: []string{"internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess2", "repro/internal/core.(*Proxy).lookup", "repro/internal/sim.(*Kernel).Spawn.func1"}},
	// An allocation (with a GC assist) made by mpi: mpi owns it.
	{Value: 10, Stack: []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", "repro/internal/mpi.(*Rank).Isend", "repro/internal/sim.(*Kernel).Spawn.func1"}},
	// A generic method of a listed package.
	{Value: 5, Stack: []string{"repro/internal/regcache.(*Cache[go.shape.int]).Get", "repro/internal/mpi.(*Rank).registerCached"}},
	// A process parking: the hand-off cut, owned by sim.
	{Value: 10, Stack: []string{"runtime.gopark", "runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Proc).yieldToKernel", "repro/internal/sim.(*Proc).Sleep"}},
	// The scheduler on g0: no frame of ours, no collector frame.
	{Value: 8, Stack: []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
	// A background mark worker.
	{Value: 4, Stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}},
	// An unlisted repo package and the harness itself.
	{Value: 2, Stack: []string{"repro/internal/stencil.Run.func1", "repro/internal/sim.(*Kernel).Spawn.func1"}},
	{Value: 1, Stack: []string{"main.workCounts", "main.runChild", "main.main"}},
}

func TestProfileReducer(t *testing.T) {
	cut := reduceProfile(cannedStacks)
	want := map[string]int64{"sim": 50, "core": 20, "mpi": 10, "regcache": 5, "go.sched": 8, "go.gc": 4, "harness": 3}
	if !reflect.DeepEqual(cut.ByLayer, want) {
		t.Errorf("owners = %v, want %v", cut.ByLayer, want)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += pct(cut.ByLayer[l], cut.Total)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares over cpuLayers sum to %v, want 100 (an owner outside cpuLayers?)", sum)
	}
	if cut.Total != 100 || cut.Handoff != 18 || cut.Alloc != 10 || cut.Map != 20 {
		t.Errorf("total %d handoff %d alloc %d map %d, want 100 18 10 20", cut.Total, cut.Handoff, cut.Alloc, cut.Map)
	}
	var twice profileCut
	twice.add(cut)
	twice.add(cut)
	if twice.Total != 200 || twice.ByLayer["sim"] != 100 || twice.Map != 40 {
		t.Errorf("add: %+v", twice)
	}
}

// TestDecodeProfile decodes a profile the runtime really wrote.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := uint64(1)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			splitmix64(&x)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the host delivered no profile samples in 300 ms")
	}
	cut := reduceProfile(samples)
	if cut.Total <= 0 {
		t.Fatalf("samples carry no cpu time: %+v", cut)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.Stack {
			found = found || strings.Contains(fn, "TestDecodeProfile")
		}
	}
	if !found {
		t.Errorf("no decoded stack names this test; first sample: %v", samples[0].Stack)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreLegalAndUnique(t *testing.T) {
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the grammar", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := goldens[w.Name]; !ok {
			t.Errorf("workload %s has no goldens", w.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use("metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.Clock != "host" && d.Clock != "simulated" {
			t.Errorf("metric %s: clock = %q", d.Name, d.Clock)
		}
	}
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the tables the
// harness emits from: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, harness has %s / %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, harness has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, harness has %v", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(f.EndToEnd), len(f.PerLayer))
	}
}

// small is the 2×2-rank shape every workload constructor is smoked at.
func small(w workload) shape {
	sh := shape{Nodes: 2, PPN: 2, Warmup: 1, Iters: 2}
	if w.Name == "drift-feedback" {
		sh = shape{Nodes: 2, PPN: 2, Iters: 8}
	}
	return sh
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := paramsFor(7)
			plain := w.prepare(small(w), p, sinks{})()
			s := sinks{met: metrics.NewRegistry(), sp: span.New(1 << 20)}
			traced := w.prepare(small(w), p, s)()

			var c checks
			c.sameVirt(w.Name, plain.Virt, traced.Virt)
			if c.Failed > 0 {
				t.Error(c.Messages)
			}
			if plain.Iters <= 0 || plain.Virt[w.Overall] <= 0 && w.Name != "drift-feedback" {
				t.Errorf("outcome %+v: want measured iterations and a positive %s", plain, w.Overall)
			}
			counts, fails := workCounts(s.met)
			if len(fails) > 0 {
				t.Error(fails)
			}
			if counts["fabric.msgs"] <= 0 || counts["fabric.bytes"] <= 0 {
				t.Errorf("no fabric traffic counted: %v", counts)
			}
			var sum float64
			for _, v := range critShares(s.sp) {
				sum += v
			}
			if math.Abs(sum-100) > 1e-6 || s.sp.Dropped() != 0 {
				t.Errorf("critical-path shares sum to %v with %d spans dropped", sum, s.sp.Dropped())
			}
			if w.Scheme != "" {
				sh := small(w)
				ref := bench.MeasureIalltoall(bench.Options{Nodes: sh.Nodes, PPN: sh.PPN, Scheme: w.Scheme}, p.MsgSize, sh.Warmup, sh.Iters)
				if int64(ref.PureComm) != plain.Virt["pure_ns"] || int64(ref.Overall) != plain.Virt["overall_ns"] {
					t.Errorf("harness loop %v differs from bench.MeasureIalltoall %+v", plain.Virt, ref)
				}
			}
		})
	}
}

func TestSeedToParams(t *testing.T) {
	if got, want := paramsFor(1), (params{MsgSize: baseMsgSize, Edge: baseEdge, BgSize: baseBgSize}); got != want {
		t.Errorf("seed 1 = %+v, want the base parameters %+v", got, want)
	}
	// Pinned: the map from seed to inputs must not move under later edits.
	if got, want := paramsFor(2), (params{MsgSize: 32192, Edge: 992, BgSize: 1008}); got != want {
		t.Errorf("seed 2 = %+v, want %+v", got, want)
	}
	distinct := map[params]bool{}
	for seed := int64(-5); seed < 500; seed++ {
		p := paramsFor(seed)
		if p != paramsFor(seed) {
			t.Fatalf("seed %d is not deterministic", seed)
		}
		distinct[p] = true
		if d := p.MsgSize - baseMsgSize; d%64 != 0 || d < -baseMsgSize/8 || d > baseMsgSize/8 {
			t.Errorf("seed %d: message size %d outside 32 KiB ± 12.5 %% in 64 B steps", seed, p.MsgSize)
		}
		if d := p.Edge - baseEdge; d%32 != 0 || d < -64 || d > 64 {
			t.Errorf("seed %d: edge %d outside 960…1088 step 32", seed, p.Edge)
		}
		if d := p.BgSize - baseBgSize; d%16 != 0 || d < -32 || d > 32 {
			t.Errorf("seed %d: background size %d outside 1 KiB ± 32 B in 16 B steps", seed, p.BgSize)
		}
	}
	if len(distinct) < 100 {
		t.Errorf("505 seeds gave only %d distinct inputs", len(distinct))
	}
}

func TestCorrectnessGates(t *testing.T) {
	var c checks
	c.integrity()
	c.ordering(baseMsgSize)
	if c.Failed != 0 || c.Attempted != 3*2*16*16+1 {
		t.Errorf("attempted %d failed %d: %v", c.Attempted, c.Failed, c.Messages)
	}
	c = checks{}
	c.golden(workloads[0], map[string]int64{"pure_ns": 1})
	if c.Failed == 0 {
		t.Error("a wrong result passed the golden check")
	}
	c = checks{}
	c.orderingOf(map[string]int64{"Proposed": 3, "IntelMPI": 2, "BluesMPI": 4}, "test")
	if c.Failed != 1 {
		t.Errorf("a broken ordering passed: %+v", c)
	}
}

func TestMicroBenchesRun(t *testing.T) {
	for _, b := range microBenches {
		b.prep(600)() // more than one drain batch, more than one collector reset
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two values: %v, %v; want 0.75, 2.25", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "sim_msgs_per_s", Better: "higher", Bound: 0.07}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lower, []float64{1.03, 1.02, 1.04, 1.03, 1.03}, "ok"},
		{lower, []float64{1.10, 1.11, 1.09, 1.10, 1.12}, "worse"},
		{lower, []float64{0.80, 0.81, 0.79, 0.80, 0.80}, "ok"},
		{higher, []float64{0.90, 0.91, 0.89, 0.90, 0.90}, "worse"},
		{higher, []float64{1.20, 1.21, 1.19, 1.20, 1.20}, "ok"},
		{lower, []float64{0.70, 1.30, 0.95, 1.25, 1.10}, "unresolved"},
	} {
		if got := verdict(tc.d, base, tc.b); got != tc.want {
			t.Errorf("%s %v: %s, want %s", tc.d.Name, tc.b, got, tc.want)
		}
	}
}
