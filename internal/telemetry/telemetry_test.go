package telemetry

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// testConfig is a tiny ring, so eviction is reachable in a few buckets.
func testConfig(buckets int) Config {
	return Config{Width: 100 * sim.Nanosecond, Buckets: buckets}
}

// run starts a recorder on a fresh kernel/registry, lets the caller
// schedule mutations, runs the kernel dry, and returns the pieces.
func run(t *testing.T, cfg Config, script func(k *sim.Kernel, reg *metrics.Registry)) (*Recorder, *metrics.Registry) {
	t.Helper()
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	r := NewRecorder("", cfg)
	r.Start(k, reg)
	script(k, reg)
	k.Run()
	return r, reg
}

func findSeries(r *Recorder, layer, entity, name string, kind SeriesKind) *Series {
	for _, s := range r.Sorted() {
		if s.Key.Layer == layer && s.Key.Entity == entity && s.Key.Name == name && s.Kind == kind {
			return s
		}
	}
	return nil
}

func TestRecorderBucketsCounterDeltas(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		c := reg.Counter("fabric", "port0", "msgs_tx")
		// Bucket 0 is [0,100): mutations at 10 and 99 land in it; the
		// mutation at exactly 100 belongs to bucket 1.
		k.At(10, func() { c.Add(3) })
		k.At(99, func() { c.Inc() })
		k.At(100, func() { c.Inc() })
		// Clock jump over buckets 2..4; bucket 5 gets one increment.
		k.At(550, func() { c.Add(10) })
	})
	s := findSeries(r, "fabric", "port0", "msgs_tx", KindCounter)
	if s == nil {
		t.Fatal("counter series not recorded")
	}
	want := []int64{4, 1, 0, 0, 0, 10}
	if s.Start() != 0 || s.Len() != len(want) {
		t.Fatalf("series covers buckets [%d,%d), want [0,%d)", s.Start(), s.Start()+s.Len(), len(want))
	}
	for i, w := range want {
		if got := s.IntAt(i); got != w {
			t.Fatalf("bucket %d delta = %d, want %d (all: %+v)", i, got, w, want)
		}
	}
	if s.Base() != 0 {
		t.Fatalf("unwrapped ring has base %d, want 0", s.Base())
	}
}

func TestRecorderSamplesGaugesAtBucketClose(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		g := reg.Gauge("core", "proxy0", "queue_depth")
		k.At(10, func() { g.Set(7) })
		k.At(90, func() { g.Set(2) }) // last write in bucket 0 wins
		k.At(250, func() { g.Set(5) })
	})
	s := findSeries(r, "core", "proxy0", "queue_depth", KindGauge)
	if s == nil {
		t.Fatal("gauge series not recorded")
	}
	// Bucket 0 closes at 100 with value 2; bucket 1 unchanged (2); bucket 2
	// closes with 5.
	want := []float64{2, 2, 5}
	if s.Len() != len(want) {
		t.Fatalf("gauge has %d buckets, want %d", s.Len(), len(want))
	}
	for i, w := range want {
		if got := s.FloatAt(i); got != w {
			t.Fatalf("bucket %d gauge = %g, want %g", i, got, w)
		}
	}
}

func TestRecorderExpandsHistograms(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		h := reg.Histogram("core", "proxy0", "cross_tenant_wait_ns")
		k.At(50, func() { h.Observe(100) })
		k.At(60, func() { h.Observe(200) })
		k.At(150, func() { h.Observe(1000) })
	})
	cnt := findSeries(r, "core", "proxy0", "cross_tenant_wait_ns", KindHistCount)
	sum := findSeries(r, "core", "proxy0", "cross_tenant_wait_ns", KindHistSum)
	if cnt == nil || sum == nil {
		t.Fatal("histogram series not recorded")
	}
	if cnt.IntAt(0) != 2 || cnt.IntAt(1) != 1 {
		t.Fatalf("hist_count deltas = %d,%d, want 2,1", cnt.IntAt(0), cnt.IntAt(1))
	}
	if sum.IntAt(0) != 300 || sum.IntAt(1) != 1000 {
		t.Fatalf("hist_sum deltas = %d,%d, want 300,1000", sum.IntAt(0), sum.IntAt(1))
	}
}

func TestRecorderPrimesPreexistingCounters(t *testing.T) {
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	c := reg.Counter("fabric", "port0", "msgs_tx")
	c.Add(1000) // pre-attach total must not leak into the series
	r := NewRecorder("", testConfig(64))
	r.Start(k, reg)
	k.At(50, func() { c.Add(5) })
	k.Run()
	s := findSeries(r, "fabric", "port0", "msgs_tx", KindCounter)
	if s == nil {
		t.Fatal("counter series not recorded")
	}
	var total int64
	for i := 0; i < s.Len(); i++ {
		total += s.IntAt(i)
	}
	if total != 5 || s.Base() != 0 {
		t.Fatalf("increase since attach = %d (base %d), want 5 (base 0)", total, s.Base())
	}
}

func TestRecorderIgnoresUnwatchedSeries(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		k.At(10, func() { reg.Counter("mpi", "rank0", "sends").Inc() })
		k.At(20, func() { reg.Counter("fabric", "port0", "msgs_tx").Inc() })
	})
	if s := findSeries(r, "mpi", "rank0", "sends", KindCounter); s != nil {
		t.Fatal("unwatched mpi series was recorded")
	}
	if s := findSeries(r, "fabric", "port0", "msgs_tx", KindCounter); s == nil {
		t.Fatal("watched fabric series was not recorded")
	}
}

func TestRingEvictionFoldsCountersIntoBase(t *testing.T) {
	// 4-bucket ring, increments in buckets 0..9: the ring retains 6..9
	// (finish closes the partial last bucket) and base holds the rest.
	r, _ := run(t, testConfig(4), func(k *sim.Kernel, reg *metrics.Registry) {
		c := reg.Counter("fabric", "port0", "msgs_tx")
		for b := int64(0); b < 10; b++ {
			at := sim.Time(b*100 + 50)
			k.At(at, func() { c.Inc() })
		}
	})
	s := findSeries(r, "fabric", "port0", "msgs_tx", KindCounter)
	if s == nil {
		t.Fatal("counter series not recorded")
	}
	if s.Len() != 4 {
		t.Fatalf("ring retains %d buckets, want 4", s.Len())
	}
	var retained int64
	for i := 0; i < s.Len(); i++ {
		retained += s.IntAt(i)
	}
	if s.Base()+retained != 10 {
		t.Fatalf("base %d + retained %d != total 10", s.Base(), retained)
	}
	if s.Base() != 6 {
		t.Fatalf("base = %d, want 6 evicted increments", s.Base())
	}
	if s.Start() != 6 {
		t.Fatalf("oldest retained bucket = %d, want 6", s.Start())
	}
	// Window queries must not count evicted buckets.
	if got := r.CounterIncrease("fabric", "port0", "msgs_tx", "", 0, 600); got != 0 {
		t.Fatalf("evicted window reports increase %d, want 0", got)
	}
	if got := r.CounterIncrease("fabric", "port0", "msgs_tx", "", 600, 1000); got != 4 {
		t.Fatalf("retained window reports increase %d, want 4", got)
	}
}

func TestWindowQueries(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		c := reg.CounterT("fabric", "port0", "msgs_tx", "fg")
		g0 := reg.Gauge("core", "proxy0", "queue_depth")
		g1 := reg.Gauge("core", "proxy1", "queue_depth")
		k.At(50, func() { c.Add(2); g0.Set(1) })
		k.At(150, func() { c.Add(3); g1.Set(9) })
		k.At(250, func() { c.Add(4); g1.Set(4) })
	})
	if got := r.CounterIncrease("fabric", "port0", "msgs_tx", "fg", 0, 200); got != 5 {
		t.Fatalf("increase [0,200) = %d, want 5", got)
	}
	if got := r.CounterIncrease("fabric", "port0", "msgs_tx", "fg", 200, 300); got != 4 {
		t.Fatalf("increase [200,300) = %d, want 4", got)
	}
	if got := r.CounterIncrease("fabric", "port0", "msgs_tx", "nope", 0, 300); got != 0 {
		t.Fatalf("unknown tenant increase = %d, want 0", got)
	}
	// Max over both proxies' queue depth in [0,300): proxy1 hit 9.
	if v, ok := r.MaxGaugeRange("core", "queue_depth", 0, 300); !ok || v != 9 {
		t.Fatalf("max queue_depth [0,300) = %g,%v, want 9,true", v, ok)
	}
	if v, ok := r.MaxGaugeRange("core", "queue_depth", 200, 300); !ok || v != 4 {
		t.Fatalf("max queue_depth [200,300) = %g,%v, want 4,true", v, ok)
	}
	if _, ok := r.MaxGaugeRange("core", "missing", 0, 300); ok {
		t.Fatal("missing gauge reported a sample")
	}
}

func TestNilRecorderAndTimelineAreInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() || r.Label() != "" || r.Width() != 0 {
		t.Fatal("nil recorder is not inert")
	}
	r.Start(sim.NewKernel(), metrics.NewRegistry())
	if got := r.CounterIncrease("a", "b", "c", "", 0, 100); got != 0 {
		t.Fatalf("nil CounterIncrease = %d", got)
	}
	if _, ok := r.MaxGaugeRange("a", "b", 0, 100); ok {
		t.Fatal("nil MaxGaugeRange found a sample")
	}
	if r.Sorted() != nil || r.ChromeCounterLines() != nil {
		t.Fatal("nil recorder exported series")
	}

	var tl *Timeline
	if tl.Enabled() || tl.Recorders() != nil {
		t.Fatal("nil timeline is not inert")
	}
	if rec := tl.NewRecorder("x"); rec != nil {
		t.Fatal("nil timeline handed out a live recorder")
	}
	var sb strings.Builder
	if err := tl.WriteJSONL(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil timeline wrote JSONL")
	}
	if err := tl.WritePrometheusTS(&sb); err != nil || sb.Len() != 0 {
		t.Fatal("nil timeline wrote prometheus")
	}
}

func TestRecorderStartWithNilRegistryRecordsNothing(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder("", testConfig(8))
	r.Start(k, nil)
	k.At(500, func() {})
	k.Run()
	if got := len(r.Sorted()); got != 0 {
		t.Fatalf("recorder with nil registry has %d series", got)
	}
}

func TestSLOTracker(t *testing.T) {
	reg := metrics.NewRegistry()
	// Target 0.75 keeps the 25% error budget exact in binary, so the burn
	// assertions can compare floats directly.
	tr := NewSLOTracker(reg, "fg", SLOConfig{Objective: 100, Target: 0.75, Window: 4})
	if tr == nil {
		t.Fatal("tracker not created")
	}
	for _, d := range []sim.Time{50, 150, 80, 90} { // 1 violation in window
		tr.Observe(d)
	}
	samples := reg.CounterT("slo", "latency", "samples", "fg")
	violations := reg.CounterT("slo", "latency", "violations", "fg")
	burn := reg.GaugeT("slo", "latency", "burn_rate", "fg")
	if samples.Value() != 4 || violations.Value() != 1 {
		t.Fatalf("samples/violations = %d/%d, want 4/1", samples.Value(), violations.Value())
	}
	// 1 violation over a window of 4 with a 25% budget: burn exactly 1.0.
	if got := burn.Value(); got != 1 {
		t.Fatalf("burn rate = %g, want 1", got)
	}
	// Window slides: four in-objective observations clear the burn.
	for i := 0; i < 4; i++ {
		tr.Observe(10)
	}
	if got := burn.Value(); got != 0 {
		t.Fatalf("burn rate after recovery = %g, want 0", got)
	}
	// The worst window was the partially-filled one right after the
	// violation: 1 of 2 observations bad = 0.5/0.25 = 2x budget.
	if v := reg.GaugeT("slo", "latency", "burn_rate_max", "fg").Value(); v != 2 {
		t.Fatalf("burn_rate_max = %g, want 2", v)
	}

	// Disabled configurations and nil trackers are inert.
	if NewSLOTracker(reg, "fg", SLOConfig{}) != nil {
		t.Fatal("zero objective created a tracker")
	}
	if NewSLOTracker(nil, "fg", SLOConfig{Objective: 100}) != nil {
		t.Fatal("nil registry created a tracker")
	}
	var nilTr *SLOTracker
	nilTr.Observe(1000) // inert: must not panic
}

func TestWriteJSONL(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		c := reg.CounterT("fabric", "port0", "msgs_tx", "fg")
		g := reg.Gauge("core", "proxy0", "queue_depth")
		k.At(50, func() { c.Add(2); g.Set(3) })
		k.At(150, func() { c.Inc() })
	})
	var sb strings.Builder
	if err := WriteJSONL(&sb, r); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	wantLines := []string{
		`{"layer":"core","entity":"proxy0","name":"queue_depth","kind":"gauge","width_ns":100,"first_bucket":0,"values":[3,3]}`,
		`{"layer":"fabric","entity":"port0","name":"msgs_tx","tenant":"fg","kind":"counter","width_ns":100,"first_bucket":0,"deltas":[2,1]}`,
	}
	if got != strings.Join(wantLines, "\n")+"\n" {
		t.Fatalf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", got, strings.Join(wantLines, "\n"))
	}
}

func TestWritePrometheusTS(t *testing.T) {
	cfg := Config{Width: sim.Millisecond, Buckets: 16}
	r, _ := run(t, cfg, func(k *sim.Kernel, reg *metrics.Registry) {
		c := reg.Counter("fabric", "port0", "msgs_tx")
		k.At(sim.Millisecond/2, func() { c.Add(2) })
		k.At(3*sim.Millisecond/2, func() { c.Add(3) })
	})
	var sb strings.Builder
	if err := WritePrometheusTS(&sb, r); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP offload_fabric_msgs_tx Simulated-cluster time series "msgs_tx" from layer "fabric" (virtual-time buckets).
# TYPE offload_fabric_msgs_tx counter
offload_fabric_msgs_tx{entity="port0"} 2 1
offload_fabric_msgs_tx{entity="port0"} 5 2
`
	if got != want {
		t.Fatalf("prometheus mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestChromeCounterLinesSparsify(t *testing.T) {
	r, _ := run(t, testConfig(64), func(k *sim.Kernel, reg *metrics.Registry) {
		g := reg.Gauge("core", "proxy0", "queue_depth")
		k.At(50, func() { g.Set(3) })
		k.At(450, func() { g.Set(3) }) // unchanged: buckets 1..4 all read 3
		k.At(550, func() { g.Set(8) })
	})
	lines := r.ChromeCounterLines()
	// Changes at buckets 0 and 5, plus the forced final bucket; the flat
	// middle buckets are suppressed.
	if len(lines) != 2 {
		t.Fatalf("got %d counter samples, want 2 (first + change/last):\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if !strings.Contains(l, `"ph":"C"`) || !strings.Contains(l, "core/proxy0/queue_depth") {
			t.Fatalf("malformed counter event: %s", l)
		}
	}
}

func TestTimelineLabelsRunsInCreationOrder(t *testing.T) {
	tl := NewTimeline(Config{})
	a := tl.NewRecorder("")
	b := tl.NewRecorder("custom")
	c := tl.NewRecorder("")
	if a.Label() != "run0" || b.Label() != "custom" || c.Label() != "run2" {
		t.Fatalf("labels = %q,%q,%q", a.Label(), b.Label(), c.Label())
	}
	if got := len(tl.Recorders()); got != 3 {
		t.Fatalf("timeline tracks %d recorders, want 3", got)
	}
}

// TestSamplingHotPathDoesNotAllocate is the allocation-budget guard: once a
// recorder's series exist, closing buckets (the per-tick hot path) must not
// allocate — the tick hook runs inside the kernel's event loop.
func TestSamplingHotPathDoesNotAllocate(t *testing.T) {
	k := sim.NewKernel()
	reg := metrics.NewRegistry()
	c := reg.Counter("fabric", "port0", "msgs_tx")
	g := reg.Gauge("core", "proxy0", "queue_depth")
	h := reg.Histogram("core", "proxy0", "cross_tenant_wait_ns")
	r := NewRecorder("", testConfig(64))
	r.Start(k, reg)
	// Warm: create every series and close a few buckets.
	c.Add(1)
	g.Set(1)
	h.Observe(10)
	r.onTick(500)
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(20)
		r.next = 100 // rewind the grid so each run closes buckets again
		r.onTick(500)
	})
	if allocs != 0 {
		t.Fatalf("sampling hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestDeviceLabelsTagPerNodeSeries(t *testing.T) {
	script := func(k *sim.Kernel, reg *metrics.Registry) {
		c := reg.Counter("fabric", "n0.host", "msgs_tx")
		k.At(50, func() { c.Add(2) })
	}

	// Without a device map, exports carry no device dimension.
	plain, _ := run(t, testConfig(64), script)
	var sb strings.Builder
	if err := WriteJSONL(&sb, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "device") {
		t.Fatalf("unlabelled recorder exported a device dimension:\n%s", sb.String())
	}

	labelled, _ := run(t, testConfig(64), script)
	labelled.SetDeviceLabels(map[string]string{"n0.host": "bf3"})
	sb.Reset()
	if err := WriteJSONL(&sb, labelled); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"device":"bf3"`) {
		t.Fatalf("JSONL missing device label:\n%s", sb.String())
	}
	sb.Reset()
	if err := WritePrometheusTS(&sb, labelled); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `entity="n0.host",device="bf3"`) {
		t.Fatalf("prometheus missing device label:\n%s", sb.String())
	}

	// Entities outside the map (other layers, SLO series) stay untagged.
	if labelled.Device("proxy9") != "" {
		t.Fatal("unmapped entity reported a device")
	}
	// Nil-safe paths.
	var nilRec *Recorder
	nilRec.SetDeviceLabels(map[string]string{"x": "y"})
	if nilRec.Device("x") != "" {
		t.Fatal("nil recorder reported a device")
	}
}
