package metrics

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testWidth keeps bucket boundaries at round virtual times.
const testWidth = 100 * sim.Nanosecond

// run starts a recorder on a fresh kernel/registry, lets the caller
// schedule mutations, runs the kernel dry, and returns the pieces.
func run(t *testing.T, script func(k *sim.Kernel, reg *Registry)) (*Recorder, *Registry) {
	t.Helper()
	k := sim.NewKernel()
	reg := NewRegistry()
	r := NewRecorder("", testWidth)
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
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
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
	if want := []int64{4, 1, 0, 0, 0, 10}; s.First != 0 || !slices.Equal(s.Deltas, want) {
		t.Fatalf("series from bucket %d = %v, want from 0 %v", s.First, s.Deltas, want)
	}
}

// A recorder keeps a run's whole history: past 4 096 buckets, bucket 0 is
// still there and a counter series' deltas sum to the counter's total.
func TestRecorderKeepsEveryBucket(t *testing.T) {
	const buckets = 5000
	r, reg := run(t, func(k *sim.Kernel, reg *Registry) {
		c := reg.Counter("fabric", "port0", "msgs_tx")
		for b := range buckets {
			k.At(sim.Time(b)*testWidth+50, func() { c.Add(int64(b % 3)) })
		}
	})
	s := findSeries(r, "fabric", "port0", "msgs_tx", KindCounter)
	if s == nil {
		t.Fatal("counter series not recorded")
	}
	if s.First != 0 || len(s.Deltas) != buckets {
		t.Fatalf("series covers buckets [%d,%d), want [0,%d)", s.First, s.First+len(s.Deltas), buckets)
	}
	var sum int64
	for _, d := range s.Deltas {
		sum += d
	}
	if total := reg.Counter("fabric", "port0", "msgs_tx").Value(); sum != total {
		t.Fatalf("deltas sum to %d, counter total is %d", sum, total)
	}
	if got := r.CounterIncrease("fabric", "port0", "msgs_tx", "", 0, 3*testWidth); got != 0+1+2 {
		t.Fatalf("increase over the first three buckets = %d, want 3", got)
	}
}

func TestRecorderSamplesGaugesAtBucketClose(t *testing.T) {
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
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
	if want := []float64{2, 2, 5}; !slices.Equal(s.Values, want) {
		t.Fatalf("gauge samples = %v, want %v", s.Values, want)
	}
}

func TestRecorderExpandsHistograms(t *testing.T) {
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
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
	if !slices.Equal(cnt.Deltas, []int64{2, 1}) {
		t.Fatalf("hist_count deltas = %v, want [2 1]", cnt.Deltas)
	}
	if !slices.Equal(sum.Deltas, []int64{300, 1000}) {
		t.Fatalf("hist_sum deltas = %v, want [300 1000]", sum.Deltas)
	}
}

func TestRecorderPrimesPreexistingCounters(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	c := reg.Counter("fabric", "port0", "msgs_tx")
	c.Add(1000) // pre-attach total must not leak into the series
	r := NewRecorder("", testWidth)
	r.Start(k, reg)
	k.At(50, func() { c.Add(5) })
	k.Run()
	s := findSeries(r, "fabric", "port0", "msgs_tx", KindCounter)
	if s == nil {
		t.Fatal("counter series not recorded")
	}
	var total int64
	for _, d := range s.Deltas {
		total += d
	}
	if total != 5 {
		t.Fatalf("increase since attach = %d, want 5", total)
	}
}

func TestRecorderIgnoresUnwatchedSeries(t *testing.T) {
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
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

func TestWindowQueries(t *testing.T) {
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
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

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Start(sim.NewKernel(), NewRegistry())
	if got := r.CounterIncrease("a", "b", "c", "", 0, 100); got != 0 {
		t.Fatalf("nil CounterIncrease = %d", got)
	}
	if _, ok := r.MaxGaugeRange("a", "b", 0, 100); ok {
		t.Fatal("nil MaxGaugeRange found a sample")
	}
	if r.Sorted() != nil || r.ChromeCounterLines() != nil {
		t.Fatal("nil recorder exported series")
	}
	var sb strings.Builder
	if err := WriteSeriesJSONL(&sb, r); err != nil || sb.Len() != 0 {
		t.Fatal("nil recorder wrote JSONL")
	}
	if err := WriteSeriesPrometheus(&sb, r); err != nil || sb.Len() != 0 {
		t.Fatal("nil recorder wrote prometheus")
	}
}

func TestRecorderStartWithNilRegistryRecordsNothing(t *testing.T) {
	k := sim.NewKernel()
	r := NewRecorder("", testWidth)
	r.Start(k, nil)
	k.At(500, func() {})
	k.Run()
	if got := len(r.Sorted()); got != 0 {
		t.Fatalf("recorder with nil registry has %d series", got)
	}
}

func TestWriteSeriesJSONL(t *testing.T) {
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
		c := reg.CounterT("fabric", "port0", "msgs_tx", "fg")
		g := reg.Gauge("core", "proxy0", "queue_depth")
		k.At(50, func() { c.Add(2); g.Set(3) })
		k.At(150, func() { c.Inc() })
	})
	var sb strings.Builder
	if err := WriteSeriesJSONL(&sb, r); err != nil {
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

func TestWriteSeriesPrometheus(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	r := NewRecorder("", sim.Millisecond)
	r.Start(k, reg)
	c := reg.Counter("fabric", "port0", "msgs_tx")
	k.At(sim.Millisecond/2, func() { c.Add(2) })
	k.At(3*sim.Millisecond/2, func() { c.Add(3) })
	k.Run()
	var sb strings.Builder
	if err := WriteSeriesPrometheus(&sb, r); err != nil {
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
	r, _ := run(t, func(k *sim.Kernel, reg *Registry) {
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

// TestSamplingHotPathAllocBudget is the sampler's allocation guard: the
// tick hook runs inside the kernel's event loop, so closing buckets may
// allocate only to grow a series — at most k+1 times per series over 2^k
// buckets — and not at all while every series has spare capacity.
func TestSamplingHotPathAllocBudget(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	c := reg.Counter("fabric", "port0", "msgs_tx")
	g := reg.Gauge("core", "proxy0", "queue_depth")
	h := reg.Histogram("core", "proxy0", "cross_tenant_wait_ns")
	r := NewRecorder("", testWidth)
	r.Start(k, reg)
	const log2Buckets = 10
	closeAll := func() {
		c.Add(1)
		g.Set(2)
		h.Observe(20)
		r.cur = 0 // rewind the grid so each run closes the same buckets
		r.onTick(sim.Time(1<<log2Buckets) * testWidth)
	}
	closeAll() // create every series
	if len(r.index) != 4 {
		t.Fatalf("recorder has %d series, want 4", len(r.index))
	}
	fresh := testing.AllocsPerRun(10, func() {
		for _, s := range r.index {
			s.Deltas, s.Values = nil, nil
		}
		closeAll()
	})
	if budget := float64(len(r.index) * (log2Buckets + 1)); fresh > budget {
		t.Fatalf("closing 2^%d buckets allocates %.0f times over %d series, want <= %.0f",
			log2Buckets, fresh, len(r.index), budget)
	}
	warm := testing.AllocsPerRun(10, func() {
		for _, s := range r.index {
			s.Deltas, s.Values = s.Deltas[:0], s.Values[:0]
		}
		closeAll()
	})
	if warm != 0 {
		t.Fatalf("closing buckets with spare capacity allocates %.1f times, want 0", warm)
	}
}

func TestDeviceLabelsTagPerNodeSeries(t *testing.T) {
	script := func(k *sim.Kernel, reg *Registry) {
		c := reg.Counter("fabric", "n0.host", "msgs_tx")
		k.At(50, func() { c.Add(2) })
	}

	// Without a device map, exports carry no device dimension.
	plain, _ := run(t, script)
	var sb strings.Builder
	if err := WriteSeriesJSONL(&sb, plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "device") {
		t.Fatalf("unlabelled recorder exported a device dimension:\n%s", sb.String())
	}

	labelled, _ := run(t, script)
	labelled.Devices = map[string]string{"n0.host": "bf3"}
	sb.Reset()
	if err := WriteSeriesJSONL(&sb, labelled); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"device":"bf3"`) {
		t.Fatalf("JSONL missing device label:\n%s", sb.String())
	}
	sb.Reset()
	if err := WriteSeriesPrometheus(&sb, labelled); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `entity="n0.host",device="bf3"`) {
		t.Fatalf("prometheus missing device label:\n%s", sb.String())
	}
}
