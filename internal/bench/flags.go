package bench

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/span"
)

// CommonFlags are the seven flags the words of offloadbench share (-metrics,
// -spans, -timeseries, -parallel, -policy, -device, -fleet). One
// registration helper keeps their names, defaults and help text in one
// place; each word registers the ones it honours.
type CommonFlags struct {
	MetricsPath    string
	SpansPath      string
	TimeseriesPath string
	Policy         string
	Device         string
	Fleet          string
	Parallel       int
}

// RegisterCommonFlags registers the seven shared flags on fs. A front end
// whose words honour different subsets registers them on a scratch set and
// hands each word's FlagSet the ones it reads.
func RegisterCommonFlags(fs *flag.FlagSet) *CommonFlags {
	cf := &CommonFlags{}
	fs.StringVar(&cf.MetricsPath, "metrics", "",
		"write a metrics snapshot after the run: JSON to <path>, Prometheus text to <path>.prom")
	fs.StringVar(&cf.SpansPath, "spans", "",
		"write the run's span trace: Chrome trace JSON to <path>, folded stacks to <path>.folded, JSONL to <path>.jsonl")
	fs.StringVar(&cf.TimeseriesPath, "timeseries", "",
		"record watched metrics as virtual-time bucketed series: JSONL to <path>.jsonl, timestamped Prometheus text to <path>.prom (with -spans, counter tracks merge into the Chrome trace)")
	fs.IntVar(&cf.Parallel, "parallel", 1,
		"sweep worker count (0 = all CPUs, 1 = serial); results are identical at any value")
	fs.StringVar(&cf.Policy, "policy", "",
		"offload policy: "+strings.Join(baseline.PolicyNames(), " | ")+" (empty = gvmi, the paper's Proposed)")
	fs.StringVar(&cf.Device, "device", "",
		"device profile for every node: "+strings.Join(device.Names(), " | ")+
			"; \"list\" prints the capability matrix and exits (empty = "+device.BaselineName+")")
	fs.StringVar(&cf.Fleet, "fleet", "",
		"per-node device profiles as \"name[:count],...\" summing to the node count"+
			" (e.g. \"bf2:2,bf3:2\"); \"help\" prints the grammar and capability matrix"+
			" and exits; overrides -device")
	return cf
}

// Check rejects the values Build would panic on, so that a command line
// fails when it is parsed rather than mid-run: an unknown -policy or
// -device, and a -fleet spec that does not cover nodes nodes. The query
// values "-device list" and "-fleet help" pass.
func (cf *CommonFlags) Check(nodes int) error {
	if cf.Policy != "" {
		if _, err := baseline.PolicyBundle(cf.Policy); err != nil {
			return err
		}
	}
	if cf.Device != "" && cf.Device != "list" {
		if _, err := device.Lookup(cf.Device); err != nil {
			return err
		}
	}
	if cf.Fleet != "" && cf.Fleet != "help" {
		if _, err := device.ExpandFleet(cf.Fleet, nodes); err != nil {
			return err
		}
	}
	return nil
}

// HandleDeviceQuery services the documentation values of -device/-fleet:
// "-device list" and "-fleet help" print the device capability matrix (plus
// the fleet grammar for the latter) to out and report true, and the caller
// is expected to exit with status 0 without running anything.
func (cf *CommonFlags) HandleDeviceQuery(out io.Writer) bool {
	switch {
	case cf.Device == "list":
		device.WriteMatrix(out)
		return true
	case cf.Fleet == "help":
		fmt.Fprintln(out, "-fleet assigns a device profile per node: \"name[:count],...\"")
		fmt.Fprintln(out, "counts must sum to the node count; a bare name covers every node.")
		fmt.Fprintln(out, "example: -fleet bf2:2,bf3:2 on a 4-node run.")
		fmt.Fprintln(out)
		device.WriteMatrix(out)
		return true
	}
	return false
}

// RejectFlags returns an error naming the first of the named flags that was
// set on fs. A run path that cannot honour a flag refuses it up front (CLIs
// exit 2) rather than run, ignore it, and report success.
func RejectFlags(fs *flag.FlagSet, what string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = fmt.Errorf("-%s is not supported by %s", f.Name, what)
		}
	})
	return err
}

// Env builds the SweepEnv the flags ask for: a fresh sink per export
// requested, the -device/-fleet profiles and the -parallel worker count
// (0 = one per CPU). Neither sink consumes virtual time, so results are
// unchanged.
func (cf *CommonFlags) Env() SweepEnv {
	env := SweepEnv{Device: cf.Device, Fleet: cf.Fleet, Parallel: cf.Parallel}
	if env.Parallel <= 0 {
		env.Parallel = runtime.GOMAXPROCS(0)
	}
	// The recorder samples the metrics registry, so -timeseries implies a
	// live registry even without -metrics (only -metrics writes the
	// snapshot files, though).
	if cf.MetricsPath != "" || cf.TimeseriesPath != "" {
		env.Met = metrics.NewRegistry()
	}
	if cf.SpansPath != "" {
		env.Sp = span.New(0)
	}
	if cf.TimeseriesPath != "" {
		env.Tl = new([]*metrics.Recorder)
	}
	return env
}

// Finish writes the exports the flags requested from env, the value Env
// built and the run recorded into, and prints one summary line per export
// to out.
func (cf *CommonFlags) Finish(env SweepEnv, out io.Writer) error {
	if cf.MetricsPath != "" {
		if err := WriteMetricsFiles(cf.MetricsPath, env.Met); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics: %s, %s.prom\n", cf.MetricsPath, cf.MetricsPath)
	}
	if cf.SpansPath != "" {
		// With both -spans and -timeseries, the recorders' counter tracks
		// merge into the Chrome trace next to the span tracks.
		var extra []string
		if env.Tl != nil {
			for _, rec := range *env.Tl {
				extra = append(extra, rec.ChromeCounterLines()...)
			}
		}
		if err := WriteSpanFilesWith(cf.SpansPath, env.Sp, extra); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %s, %s.folded, %s.jsonl (%d spans, %d dropped)\n",
			cf.SpansPath, cf.SpansPath, cf.SpansPath, env.Sp.Len(), env.Sp.Dropped())
	}
	if cf.TimeseriesPath != "" {
		if err := WriteTimeseriesFiles(cf.TimeseriesPath, *env.Tl...); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeseries: %s.jsonl, %s.prom (%d runs)\n",
			cf.TimeseriesPath, cf.TimeseriesPath, len(*env.Tl))
	}
	return nil
}

// WriteMetricsFiles exports the registry as JSON to path and as Prometheus
// text exposition format to path.prom.
func WriteMetricsFiles(path string, reg *metrics.Registry) error {
	snap := reg.Snapshot()
	if err := WriteFile(path, snap.WriteJSON); err != nil {
		return err
	}
	return WriteFile(path+".prom", snap.WritePrometheus)
}

// WriteSpanFilesWith exports the collector as Chrome trace JSON to path
// (with the extra pre-rendered trace events — recorder counter tracks —
// merged in), folded stacks to path.folded, and JSONL to path.jsonl.
func WriteSpanFilesWith(path string, sc *span.Collector, extra []string) error {
	if err := WriteFile(path, func(w io.Writer) error { return sc.WriteChromeTraceWith(w, extra) }); err != nil {
		return err
	}
	if err := WriteFile(path+".folded", sc.WriteFolded); err != nil {
		return err
	}
	return WriteFile(path+".jsonl", sc.WriteJSONL)
}

// WriteTimeseriesFiles exports the recorders as JSONL to path.jsonl and as
// timestamped Prometheus text to path.prom.
func WriteTimeseriesFiles(path string, recs ...*metrics.Recorder) error {
	err := WriteFile(path+".jsonl", func(w io.Writer) error { return metrics.WriteSeriesJSONL(w, recs...) })
	if err != nil {
		return err
	}
	return WriteFile(path+".prom", func(w io.Writer) error { return metrics.WriteSeriesPrometheus(w, recs...) })
}
