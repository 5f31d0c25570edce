// Command offloadbench is the one front end to the simulated BlueField
// cluster: it regenerates every table and figure of the paper's evaluation
// and the extension figures built on them, writes and checks the pinned
// BENCH_*.json baselines, runs the OSU-Micro-Benchmarks-style tests the
// paper measures with (ref [12]) and offloads user-defined communication
// patterns — the generic workflow its Group primitives enable.
//
// Usage:
//
//	offloadbench WORD [flags]
//	offloadbench -device list | -fleet help
//
// Run it with no arguments for every word, what it does and the flags it
// reads. That text, the dispatch and the `all` word are all generated from
// the one word table (words.go). A word registers only the flags it reads,
// so any other flag is a usage error (exit 2), as is a value its run could
// not honour. Defaults are scaled to finish in minutes on a laptop; -full
// asks for paper-scale runs. All times are virtual (simulated) nanoseconds
// and fully deterministic.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pattern"
)

func main() {
	pl, err := parse(os.Args[1:])
	if errors.Is(err, errUsage) {
		if err != errUsage {
			fmt.Fprintln(os.Stderr, "offloadbench:", err)
		}
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "offloadbench: %v\n(run offloadbench with no arguments for every word and its flags)\n", err)
		os.Exit(2)
	}
	if err := pl.exec(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "offloadbench:", err)
		os.Exit(1)
	}
}

// errUsage asks for the full usage text: no word, an unknown one, or -h.
var errUsage = errors.New("usage")

// A word is one subcommand of the table in words.go.
type word struct {
	name  string
	help  string
	reads string                // every flag the word reads, own and shared, space-separated
	all   bool                  // run by `all`
	check func(p *params) error // resolves defaults and rejects what run cannot honour
	run   func(p *params, out io.Writer) error
}

// A plan is a parsed command line: a word's run with every flag resolved.
type plan struct {
	p   *params
	run func(p *params, out io.Writer) error
}

// parse turns argv into a plan or an error, with no side effects: nothing is
// read, written, activated or run.
func parse(args []string) (*plan, error) {
	if len(args) == 0 {
		return nil, errUsage
	}
	w, rest := word{name: "query", reads: "device fleet"}, args // -device list / -fleet help
	if !strings.HasPrefix(args[0], "-") {
		var ok bool
		if w, rest, ok = lookup(args); !ok {
			return nil, fmt.Errorf("no word %q: %w", args[0], errUsage)
		}
	}
	p := &params{}
	if w.name == "snap" { // snap [-check] NAME|all [flags]
		if len(rest) > 0 && rest[0] == "-check" {
			p.snapCheck, rest = true, rest[1:]
		}
		if len(rest) == 0 || strings.HasPrefix(rest[0], "-") {
			return nil, errors.New("snap: want NAME|all, after an optional -check")
		}
		p.snapName, rest = rest[0], rest[1:]
	}
	p.fs = flag.NewFlagSet("offloadbench "+w.name, flag.ContinueOnError)
	p.fs.SetOutput(io.Discard)
	all := p.flags()
	for _, name := range append(strings.Fields(w.reads), "cpuprofile", "memprofile") {
		f := all.Lookup(name)
		p.fs.Var(f.Value, f.Name, f.Usage)
	}
	err := p.fs.Parse(rest)
	if errors.Is(err, flag.ErrHelp) { // -h, -help
		return nil, errUsage
	}
	p.fs.Visit(func(f *flag.Flag) { // no count is negative
		if g, ok := f.Value.(flag.Getter); ok && err == nil {
			if v, ok := g.Get().(int); ok && v < 0 {
				err = fmt.Errorf("-%s %d: want a count >= 0", f.Name, v)
			}
		}
	})
	switch {
	case err == nil && p.fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", p.fs.Arg(0))
	case err == nil && w.run == nil && p.cf.Device != "list" && p.cf.Fleet != "help":
		return nil, errUsage
	case err == nil && w.check != nil:
		err = w.check(p)
	}
	if err == nil {
		err = p.cf.Check(p.nodes)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &plan{p, w.run}, nil
}

// lookup finds the word args starts with: one table word, or two for the
// `omb` family.
func lookup(args []string) (word, []string, bool) {
	for _, w := range append(words, everything()) {
		n := len(strings.Fields(w.name))
		if len(args) >= n && strings.Join(args[:n], " ") == w.name {
			return w, args[n:], true
		}
	}
	return word{}, nil, false
}

// everything is the `all` word: every table word marked all, in table order,
// under the union of the flags they read.
func everything() word {
	var members []word
	var reads []string
	for _, w := range words {
		if w.all {
			members = append(members, w)
			reads = union(reads, strings.Fields(w.reads))
		}
	}
	return word{name: "all", help: "every word marked * above, in that order", reads: strings.Join(reads, " "),
		run: func(p *params, out io.Writer) error {
			for _, w := range members {
				if err := w.run(p, out); err != nil {
					return err
				}
			}
			return nil
		}}
}

func union(a, b []string) []string {
	for _, s := range b {
		if !slices.Contains(a, s) {
			a = append(a, s)
		}
	}
	return a
}

// exec runs the plan in the SweepEnv its shared flags build, then writes
// the exports they requested. Results go to out, notes beside them (the
// scale footprint) to errOut.
func (pl *plan) exec(out, errOut io.Writer) error {
	p := pl.p
	p.env, p.errOut = p.cf.Env(), errOut
	if p.cf.HandleDeviceQuery(out) {
		return nil // -device list / -fleet help: documented exit 0
	}
	if p.cpuProfile != "" {
		f, err := os.Create(p.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := pl.run(p, out); err != nil {
		return err
	}
	if err := p.cf.Finish(p.env, out); err != nil || p.memProfile == "" {
		return err
	}
	return bench.WriteFile(p.memProfile, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

// params holds the value of every word flag; a word's FlagSet carries only
// the ones it reads, and its check resolves their defaults.
type params struct {
	fs                     *flag.FlagSet // the word's, after parsing
	cf                     *bench.CommonFlags
	env                    bench.SweepEnv // the run's sinks, device, fleet and workers: cf's, built by exec
	errOut                 io.Writer      // where exec sends notes beside the results
	cpuProfile, memProfile string

	ppn, iters, warmup, memGB, nb, maxRanks, size int
	full                                          bool
	seed                                          int64
	out, snapName                                 string
	snapCheck                                     bool

	nodes, minSize, maxSize, bgJobs int

	file, preset             string
	np, calls, tenants       int
	noRegCache, noGroupCache bool
	verify                   bool
	compute, bgStart         time.Duration
	core                     core.Config // the pattern run's, resolved by its check
}

// flags defines every flag of every word once, bound to p, on a scratch set
// that parse copies a word's flags from and usage prints.
func (p *params) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("offloadbench", flag.ContinueOnError)
	p.cf = bench.RegisterCommonFlags(fs)
	fs.StringVar(&p.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to <path>")
	fs.StringVar(&p.memProfile, "memprofile", "", "write a pprof heap profile after the run to <path>")
	fs.IntVar(&p.ppn, "ppn", 0, "processes per node (0 = the word's default)")
	fs.IntVar(&p.iters, "iters", 0, "measured iterations (0 = the word's default)")
	fs.IntVar(&p.warmup, "warmup", 4, "warmup iterations (benchmark level; apps run with none)")
	fs.BoolVar(&p.full, "full", false, "paper-scale parameters (slow)")
	fs.IntVar(&p.memGB, "memgb", 0, "HPL memory per node in GB (0 = default)")
	fs.IntVar(&p.nb, "nb", 256, "HPL block size (0 = 256)")
	fs.Int64Var(&p.seed, "seed", 42, "fault-injection seed")
	fs.Func("size", "message size: 8192, 32K, 2M (default: the word's)", setSize(&p.size))
	fs.IntVar(&p.maxRanks, "maxranks", 0, "largest rank count of the sweep (0 = all of them)")
	fs.StringVar(&p.out, "o", "", "output path")
	fs.IntVar(&p.nodes, "nodes", 0, "nodes (0 = the word's default)")
	p.minSize, p.maxSize = 4<<10, 512<<10
	fs.Func("min", "smallest message size (default 4K)", setSize(&p.minSize))
	fs.Func("max", "largest message size (default 512K)", setSize(&p.maxSize))
	fs.IntVar(&p.bgJobs, "bgjobs", 3, "largest background bulk-job count swept")
	fs.StringVar(&p.file, "file", "", "pattern spec file ('-' = stdin)")
	fs.StringVar(&p.preset, "preset", "", "built-in pattern: "+strings.Join(presets, " | "))
	fs.IntVar(&p.np, "np", 8, "ranks of a preset")
	fs.BoolVar(&p.noRegCache, "noregcache", false, "disable the registration caches")
	fs.BoolVar(&p.noGroupCache, "nogroupcache", false, "disable the group-request cache")
	fs.DurationVar(&p.compute, "compute", 0, "overlapped compute per call (e.g. 1ms)")
	fs.IntVar(&p.calls, "calls", 1, "GroupCall repetitions")
	fs.BoolVar(&p.verify, "verify", true, "payload-backed buffers with data checks")
	fs.IntVar(&p.tenants, "tenants", 1, "replicate the pattern across N tenant jobs sharing the fabric and one proxy worker per node")
	fs.DurationVar(&p.bgStart, "bgstart", 0, "with -tenants, job i starts at i x this delay (e.g. 500us)")
	return fs
}

// setSize parses a size flag in pattern.ParseSize's grammar into v.
func setSize(v *int) func(string) error {
	return func(s string) (err error) { *v, err = pattern.ParseSize(s); return err }
}

// usage prints every word of the table with the flags it reads, then every
// flag.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: offloadbench WORD [flags]    (* = run by all; each word's flags in brackets,")
	fmt.Fprintln(w, "       offloadbench -device list | -fleet help    and every word takes -cpuprofile/-memprofile)")
	fmt.Fprintln(w)
	for _, wd := range append(words, everything()) {
		name := wd.name
		if wd.all {
			name += " *"
		}
		fmt.Fprintf(w, "  %-16s %s\n", name, wd.help)
		if wd.reads != "" {
			fmt.Fprintf(w, "  %-16s [-%s]\n", "", strings.ReplaceAll(wd.reads, " ", " -"))
		}
	}
	fmt.Fprintln(w, "\nflags:")
	fs := new(params).flags()
	fs.SetOutput(w)
	fs.PrintDefaults()
}
