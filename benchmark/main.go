// Command benchmark is the host-time benchmark of the simulator: it
// measures, from outside and through exported entry points only, how long
// the simulator takes (host clock) and what it simulated (simulated clock),
// end to end and layer by layer. README.md is the glossary.
//
//	go run ./benchmark                         # every workload, both passes
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -compare A/results.json B/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// hostShape records where a result file was measured.
type hostShape struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel,omitempty"`
}

func thisHost() hostShape {
	h := hostShape{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// resultFile is what a benchmark invocation writes to -out and what
// -compare reads.
type resultFile struct {
	Host hostShape `json:"host"`
	Runs []runSet  `json:"runs"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all, one after another)")
		seed         = flag.Int64("seed", 1, "input seed; 1 is the pinned parameter set")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, sinks off; 1: per-layer tables from traced runs; -1: both")
		runs         = flag.Int("runs", 1, "untraced runs per workload, on seeds seed, seed+1, …")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json (tables and harness spans)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")

		child        = flag.Bool("child", false, "internal: run one workload once and report to the parent")
		childMetrics = flag.Bool("child-metrics", false, "internal")
		childSpans   = flag.Bool("child-spans", false, "internal")
		childProfile = flag.Bool("child-profile", false, "internal")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		if !compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}

	var todo []workload
	if *workloadName == "" {
		todo = workloads
	} else if w, ok := workloadByName(*workloadName); ok {
		todo = []workload{w}
	} else {
		fatal("unknown workload %q", *workloadName)
	}

	if *child {
		if len(todo) != 1 {
			fatal("-child needs -workload")
		}
		if err := runChild(todo[0], *seed, childMode{Metrics: *childMetrics, Spans: *childSpans, Profile: *childProfile}); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *seconds <= 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		fatal("need -seconds > 0, -runs >= 1 and -trace in {-1, 0, 1}")
	}

	file := resultFile{Host: thisHost()}
	run := func(w workload, seed int64, trace int) {
		set := runWorkload(w, seed, *seconds, trace)
		report(set)
		file.Runs = append(file.Runs, set)
	}
	for _, w := range todo {
		if *trace != 1 {
			for i := 0; i < *runs; i++ {
				run(w, *seed+int64(i), 0)
			}
		}
		if *trace != 0 {
			run(w, *seed, 1)
		}
	}
	extra := suiteChecks(file.Runs)
	for _, m := range extra.Messages {
		fmt.Println("FAIL", m)
	}
	if err := writeResults(*outDir, file); err != nil {
		fatal("%v", err)
	}

	// The contract's result line: the last run's, which is the only run when
	// one workload and one trace setting were asked for.
	last := file.Runs[len(file.Runs)-1]
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, map[string]metricOut{}}
	for name, m := range last.Metrics {
		line.Metrics[name] = metricOut{Value: m.Value, Unit: m.Unit}
	}
	ok := extra.Failed == 0
	for _, r := range file.Runs {
		ok = ok && r.Correct
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// report prints one run's table.
func report(set runSet) {
	kind, defs := "end-to-end (sinks off)", endToEnd
	if set.Trace == 1 {
		kind, defs = "per-layer (traced runs + micro pass)", perLayer
	}
	fmt.Printf("== %s  seed %d  %s  shape %+v  params %+v\n", set.Workload, set.Seed, kind, set.Shape, set.Params)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tclock\tmin\tmax\tn")
	for _, d := range defs {
		m, ok := set.Metrics[d.Name]
		if !ok {
			continue
		}
		if m.N > 0 {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%.6g\t%.6g\t%d\n", d.Name, m.Value, m.Unit, d.Clock, m.Min, m.Max, m.N)
		} else {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t\t\t\n", d.Name, m.Value, m.Unit, d.Clock)
		}
	}
	tw.Flush()
	keys := make([]string, 0, len(set.Virt))
	for k := range set.Virt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("simulated:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, set.Virt[k])
	}
	fmt.Printf("\nchecks: attempted %d, failed %d (failed_frac %.3g)\n", set.Attempted, set.Failed,
		float64(set.Failed)/float64(max(set.Attempted, 1)))
	for _, m := range set.Messages {
		fmt.Println("FAIL", m)
	}
	fmt.Println()
}

// suiteChecks are the checks that need more than one workload's result:
// when all three a2a workloads ran untraced on one seed, the Figure 13
// ordering must hold at the full 256-rank shape.
func suiteChecks(runs []runSet) checks {
	var c checks
	bySeed := map[int64]map[string]int64{}
	for _, r := range runs {
		if w, _ := workloadByName(r.Workload); w.Scheme != "" && r.Trace == 0 && r.Virt != nil {
			if bySeed[r.Seed] == nil {
				bySeed[r.Seed] = map[string]int64{}
			}
			bySeed[r.Seed][w.Scheme] = r.Virt[w.Overall]
		}
	}
	for seed, overall := range bySeed {
		if len(overall) == len(schemes) {
			c.orderingOf(overall, fmt.Sprintf("256 ranks, seed %d", seed))
		}
	}
	return c
}

func writeResults(dir string, file resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), b, 0o644)
}
