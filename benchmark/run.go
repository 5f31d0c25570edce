package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one child process; a simulation that hangs is a
// failed run, not a hung benchmark.
const childTimeout = 120 * time.Second

// minTimed is the least number of timed children behind a median.
const minTimed = 3

// childResult is a child's report plus what only the parent can measure:
// wall time from start to exit, and the child's rusage.
type childResult struct {
	childReport
	Start  time.Time
	WallNS int64
	UserNS int64
	SysNS  int64
	RSSKB  int64
}

// spawn runs one child to completion. The child is a re-exec of this
// binary, so every run pays process start, heap growth and GC pacing the
// way a CLI user does.
func spawn(w workload, seed int64, mode childMode) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-child-metrics="+strconv.FormatBool(mode.Metrics),
		"-child-spans="+strconv.FormatBool(mode.Spans),
		"-child-profile="+strconv.FormatBool(mode.Profile))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	res := childResult{Start: time.Now()}
	cmd.Env = append(os.Environ(), t0Env+"="+strconv.FormatInt(res.Start.UnixNano(), 10))
	err = cmd.Run()
	res.WallNS = int64(time.Since(res.Start))
	if err != nil {
		return res, fmt.Errorf("%s child (%s): %w", w.Name, mode, err)
	}
	if err := json.Unmarshal(out.Bytes(), &res.childReport); err != nil {
		return res, fmt.Errorf("%s child (%s): bad report: %w", w.Name, mode, err)
	}
	res.UserNS = int64(cmd.ProcessState.UserTime())
	res.SysNS = int64(cmd.ProcessState.SystemTime())
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSKB = int64(ru.Maxrss) // kilobytes on Linux
	}
	return res, nil
}

// hspan is a harness-side span: a phase of one run, timed on the host
// clock in nanoseconds since the run's start. Spans of one run share RunID.
type hspan struct {
	RunID  string `json:"run_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// metricOut is one reported metric. Timings that are medians over several
// children carry their range and count (n < 11, so no percentile).
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runSet is the result of one benchmark run: one workload, one seed, traced
// or not.
type runSet struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Seconds   float64              `json:"seconds"`
	Shape     shape                `json:"shape"`
	Params    params               `json:"params"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Messages  []string             `json:"messages,omitempty"`
	Metrics   map[string]metricOut `json:"metrics"`
	Virt      map[string]int64     `json:"virt"`
	Spans     []hspan              `json:"spans"`
}

// runner executes the children of one run and keeps their harness spans.
type runner struct {
	w     workload
	seed  int64
	begin time.Time
	set   runSet
	chk   checks
	all   []childResult
	dead  bool // a child failed: the whole run fails
}

// child runs one child and books it: harness spans, the same-results check,
// its measured iterations. A child that fails marks the run dead.
func (r *runner) child(mode childMode) childResult {
	res, err := spawn(r.w, r.seed, mode)
	if err != nil {
		r.dead = true
		r.chk.fail(1, "%v", err)
		return res
	}
	runID := fmt.Sprintf("%s-s%d-%d-%s", r.w.Name, r.seed, len(r.all), mode)
	off := int64(res.Start.Sub(r.begin))
	phase := func(id int, name string, from, to int64) hspan {
		parent := 1
		if id == 1 {
			parent = 0
		}
		return hspan{RunID: runID, ID: id, Parent: parent, Name: name, Start: off + from, End: off + to}
	}
	r.set.Spans = append(r.set.Spans,
		phase(1, "proc", 0, res.WallNS),
		phase(2, "setup", 0, res.SetupEnd),
		phase(3, "simulate", res.SetupEnd, res.SimulateEnd),
		phase(4, "reduce", res.SimulateEnd, res.ReduceEnd),
		phase(5, "teardown", res.ReduceEnd, res.WallNS))
	if len(r.all) > 0 {
		r.chk.sameVirt(runID, r.all[0].Virt, res.Virt)
	}
	for _, f := range res.Failures {
		r.chk.check(false, "%s: %s", runID, f)
	}
	r.set.Attempted += res.Iters
	r.all = append(r.all, res)
	return res
}

// timed runs sink-free children until the budget is spent (at least
// minTimed of them).
func (r *runner) timed(budget time.Duration) []childResult {
	var out []childResult
	start := time.Now()
	for !r.dead && (len(out) < minTimed || time.Since(start) < budget) {
		if res := r.child(childMode{}); !r.dead {
			out = append(out, res)
		}
	}
	return out
}

func pick(rs []childResult, f func(childResult) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return v
}

// timing is the median of one value per child, with its range.
func timing(rs []childResult, f func(childResult) float64) metricOut {
	s := pick(rs, f)
	sort.Float64s(s)
	return metricOut{Value: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func simulateNS(c childResult) float64 { return float64(c.SimulateEnd - c.SetupEnd) }

// runWorkload is one benchmark run. With trace 0 it spends the budget on
// timed children and reports the end-to-end metrics; with trace 1 it spends
// it on profiled children and reports the per-layer tables.
func runWorkload(w workload, seed int64, seconds float64, trace int) runSet {
	r := &runner{w: w, seed: seed, begin: time.Now(), set: runSet{
		Workload: w.Name, Seed: seed, Trace: trace, Seconds: seconds,
		Shape: w.Shape, Params: paramsFor(seed), Metrics: map[string]metricOut{},
	}}
	set, chk := &r.set, &r.chk
	budget := time.Duration(seconds * float64(time.Second))

	if trace == 0 {
		timed := r.timed(budget)
		counted := r.child(childMode{Metrics: true})
		if !r.dead {
			endToEndMetrics(set, timed, counted)
		}
		setUnits(set.Metrics, endToEnd)
	} else {
		timed := r.timed(0)
		traced := r.child(childMode{Metrics: true, Spans: true})
		var profiled []childResult
		for start := time.Now(); !r.dead && (len(profiled) < 2 || time.Since(start) < budget); {
			if p := r.child(childMode{Profile: true}); !r.dead {
				profiled = append(profiled, p)
			}
		}
		if !r.dead {
			perLayerMetrics(set, w, timed, traced, profiled)
		}
		setUnits(set.Metrics, perLayer)
	}

	if len(r.all) > 0 {
		set.Virt = r.all[0].Virt
		if seed == 1 {
			chk.golden(w, set.Virt)
		}
	}
	chk.integrity()
	if seed != 1 {
		chk.ordering(set.Params.MsgSize)
	}

	set.Attempted += chk.Attempted
	set.Failed = chk.Failed
	set.Messages = chk.Messages
	if r.dead {
		// A panic, a deadlock or a hang fails everything the run attempted.
		set.Failed = set.Attempted
	}
	set.Correct = set.Failed == 0
	return *set
}

func setUnits(m map[string]metricOut, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			v.Unit = d.Unit
			m[d.Name] = v
		}
	}
}

func endToEndMetrics(set *runSet, timed []childResult, counted childResult) {
	msgs := counted.Counts["fabric.msgs"]
	wall := timing(timed, func(c childResult) float64 { return float64(c.WallNS) / 1e9 })
	set.Metrics["wall_s"] = wall
	set.Metrics["sim_msgs_per_s"] = metricOut{Value: msgs / wall.Value}
	set.Metrics["allocs_per_msg"] = metricOut{
		Value: median(pick(timed, func(c childResult) float64 { return float64(c.Mallocs) })) / msgs,
	}
	set.Metrics["alloc_bytes_per_msg"] = metricOut{
		Value: median(pick(timed, func(c childResult) float64 { return float64(c.AllocBytes) })) / msgs,
	}
	// Peak RSS is live data plus however far the collector happened to lag
	// (±10 % between identical children); the smallest peak is the steadiest
	// estimate of what the run needs.
	rss := timing(timed, func(c childResult) float64 { return float64(c.RSSKB) / 1024 })
	rss.Value = rss.Min
	set.Metrics["rss_peak_mb"] = rss
	set.Metrics["setup_s"] = timing(timed, func(c childResult) float64 { return float64(c.SetupEnd) / 1e9 })
}

func perLayerMetrics(set *runSet, w workload, timed []childResult, traced childResult, profiled []childResult) {
	m := set.Metrics
	var cut profileCut
	for _, p := range profiled {
		cut.add(*p.Profile)
	}
	for _, l := range cpuLayers {
		m[l+".cpu_share_pct"] = metricOut{Value: pct(cut.ByLayer[l], cut.Total)}
	}
	m["go.handoff_incl_pct"] = metricOut{Value: pct(cut.Handoff, cut.Total)}
	m["go.alloc_incl_pct"] = metricOut{Value: pct(cut.Alloc, cut.Total)}
	m["go.map_incl_pct"] = metricOut{Value: pct(cut.Map, cut.Total)}

	for name, v := range traced.Counts {
		m[name] = metricOut{Value: v}
	}
	m["virt.overall_us"] = metricOut{Value: float64(traced.Virt[w.Overall]) / 1000}
	for _, l := range critLayers {
		m["virt.crit_pct."+l] = metricOut{Value: traced.Crit[l]}
	}
	m["span.dropped"] = metricOut{Value: float64(traced.SpanDropped)}

	m["proc.cpu_s"] = timing(timed, func(c childResult) float64 { return float64(c.UserNS+c.SysNS) / 1e9 })
	m["proc.sys_s"] = timing(timed, func(c childResult) float64 { return float64(c.SysNS) / 1e9 })
	m["proc.gc_cycles"] = timing(timed, func(c childResult) float64 { return float64(c.GCCycles) })
	m["proc.gc_pause_ms"] = timing(timed, func(c childResult) float64 { return float64(c.GCPauseNS) / 1e6 })
	m["proc.alloc_mb"] = timing(timed, func(c childResult) float64 { return float64(c.AllocBytes) / (1 << 20) })
	m["proc.goroutines_peak"] = metricOut{Value: float64(traced.GoroutinesPeak)}

	base := median(pick(timed, simulateNS))
	m["obs.tax_ratio"] = metricOut{Value: simulateNS(traced) / base}
	m["prof.overhead_ratio"] = metricOut{Value: median(pick(profiled, simulateNS)) / base}

	for _, b := range microBenches {
		res := runMicro(b)
		m[b.Name+"_ns"] = metricOut{Value: res.NsPerOp}
		m[b.Name+"_allocs"] = metricOut{Value: res.AllocsPerOp}
	}
}
