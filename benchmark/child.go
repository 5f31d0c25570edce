package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/span"
)

// spanLimit bounds the traced run's collector. The workloads record 1.2 M
// (stencil) to 2.6 M (staged alltoall) spans at the sizes used here; the
// limit is a guard, and span.dropped reports whether it bit.
const spanLimit = 4 << 20

// t0Env carries the parent's clock reading taken just before it started
// the child, so set-up time includes process start.
const t0Env = "BENCHMARK_T0_UNIXNANO"

// childMode selects what a child process attaches to the simulation.
type childMode struct {
	Metrics bool // live metrics.Registry (traced run A, and the message count of a timed set)
	Spans   bool // bounded span.Collector (traced run A)
	Profile bool // CPU profile (traced run B)
}

func (m childMode) String() string {
	var s []string
	if m.Metrics {
		s = append(s, "metrics")
	}
	if m.Spans {
		s = append(s, "spans")
	}
	if m.Profile {
		s = append(s, "profile")
	}
	if len(s) == 0 {
		return "timed"
	}
	return strings.Join(s, "+")
}

// childReport is what a child prints for its parent: phase boundaries on
// the host clock (nanoseconds since the parent's T0), the simulated
// results, and whatever its sinks collected.
type childReport struct {
	SetupEnd    int64            `json:"setup_end_ns"`
	SimulateEnd int64            `json:"simulate_end_ns"`
	ReduceEnd   int64            `json:"reduce_end_ns"`
	Virt        map[string]int64 `json:"virt"`
	Iters       int              `json:"iters"`

	Mallocs    uint64 `json:"mallocs"`     // over simulate
	AllocBytes uint64 `json:"alloc_bytes"` // over simulate
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNS  uint64 `json:"gc_pause_ns"`

	Counts         map[string]float64 `json:"counts,omitempty"`
	Failures       []string           `json:"failures,omitempty"`
	GoroutinesPeak int                `json:"goroutines_peak,omitempty"`
	Crit           map[string]float64 `json:"crit,omitempty"`
	SpanDropped    int64              `json:"span_dropped"`
	Profile        *profileCut        `json:"profile,omitempty"`
}

// runChild is the body of a child process: one workload, one seed, once.
func runChild(w workload, seed int64, mode childMode) error {
	t0 := time.Now()
	if v, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64); err == nil {
		t0 = time.Unix(0, v)
	}
	since := func() int64 { return int64(time.Since(t0)) }

	var prof bytes.Buffer
	if mode.Profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var s sinks
	if mode.Metrics {
		s.met = metrics.NewRegistry()
	}
	if mode.Spans {
		s.sp = span.New(spanLimit)
	}

	simulate := w.prepare(w.Shape, paramsFor(seed), s)
	rep := childReport{SetupEnd: since()}

	stop, peak := make(chan struct{}), make(chan int)
	if mode.Metrics {
		go sampleGoroutines(stop, peak)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out := simulate()
	runtime.ReadMemStats(&m1)
	rep.SimulateEnd = since()
	close(stop)
	if mode.Metrics {
		rep.GoroutinesPeak = <-peak
	}
	pprof.StopCPUProfile()

	rep.Virt, rep.Iters = out.Virt, out.Iters
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.GCCycles = m1.NumGC
	rep.GCPauseNS = m1.PauseTotalNs

	if s.met != nil {
		rep.Counts, rep.Failures = workCounts(s.met)
	}
	if s.sp != nil {
		rep.Crit = critShares(s.sp)
		rep.SpanDropped = s.sp.Dropped()
	}
	if mode.Profile {
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		cut := reduceProfile(samples)
		rep.Profile = &cut
	}
	rep.ReduceEnd = since()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// sampleGoroutines polls the goroutine count until stop closes and sends
// the peak. The simulator's goroutines (one per simulated process) live for
// the whole run, so a coarse poll sees the peak.
func sampleGoroutines(stop <-chan struct{}, peak chan<- int) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	max := runtime.NumGoroutine()
	for {
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
		}
	}
}

// workCounts reduces a run's registry to the exact per-layer work counts,
// and checks that the fabric conserved what it was given.
func workCounts(reg *metrics.Registry) (map[string]float64, []string) {
	sum := map[string]int64{}
	reg.VisitCounters(func(k metrics.Key, c *metrics.Counter) {
		name := k.Name
		if k.Layer == "policy" && strings.HasPrefix(name, "decide_") {
			name = "decide"
		}
		sum[k.Layer+"."+name] += c.Value()
	})
	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	depth, _ := reg.MaxGauge("core", "queue_depth_max")
	counts := map[string]float64{
		"fabric.msgs":            float64(sum["fabric.msgs_rx"]),
		"fabric.bytes":           float64(sum["fabric.bytes_rx"]),
		"verbs.retries":          float64(sum["verbs.retries"]),
		"regcache.hit_ratio":     ratio(sum["regcache.hits"], sum["regcache.misses"]),
		"core.group_hit_ratio":   ratio(sum["core.group_hits"], sum["core.group_misses"]),
		"core.queue_depth_max":   depth,
		"core.tenant_dispatches": float64(sum["core.tenant_dispatches"]),
		"mpi.eager_msgs":         float64(sum["mpi.eager_msgs"]),
		"mpi.rndv_msgs":          float64(sum["mpi.rendezvous_msgs"]),
		"mpi.shm_msgs":           float64(sum["mpi.shm_msgs"]),
		"policy.decisions":       float64(sum["policy.decide"]),
		"policy.reprobes":        float64(sum["policy.reason_reprobe"]),
	}
	var fails []string
	if tx, rx := sum["fabric.msgs_tx"], sum["fabric.msgs_rx"]+sum["fabric.msgs_dropped"]+sum["fabric.msgs_discarded"]; tx != rx {
		fails = append(fails, fmt.Sprintf("fabric lost messages: msgs_tx %d != rx+dropped+discarded %d", tx, rx))
	}
	// No fault plan is installed, so nothing is dropped and bytes balance
	// without a dropped-bytes series (the fabric keeps none).
	if tx, rx := sum["fabric.bytes_tx"], sum["fabric.bytes_rx"]+sum["fabric.bytes_discarded"]; tx != rx {
		fails = append(fails, fmt.Sprintf("fabric lost bytes: bytes_tx %d != rx+discarded %d", tx, rx))
	}
	return counts, fails
}

// critLayers are the layers that originate spans, i.e. the ones simulated
// critical-path time can be attributed to.
var critLayers = []string{"mpi", "coll", "core", "verbs", "fabric"}

// critShares attributes the simulated critical path of every recorded root
// span to the layer whose span was the deepest one being waited on, as
// percentages of the summed root latencies.
func critShares(sp *span.Collector) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, row := range sp.Attribution(sp.Roots()) {
		by[row.Layer] += int64(row.Time)
		total += int64(row.Time)
	}
	out := map[string]float64{}
	for _, l := range critLayers {
		out[l] = pct(by[l], total)
	}
	return out
}
