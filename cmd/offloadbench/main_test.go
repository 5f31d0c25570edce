package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/metrics"
)

// TestMain lets the tests run the real main (parsing, os.Exit codes and
// all) by re-executing the test binary with runMainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "OFFLOADBENCH_TEST_RUN_MAIN"

func offloadbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("offloadbench %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// refused asserts a command line stops with status 2, a message naming
// want, and no results.
func refused(t *testing.T, want string, args ...string) {
	t.Helper()
	out, stderr, code := offloadbench(t, args...)
	if code != 2 || !strings.Contains(stderr, want) || out != "" {
		t.Errorf("offloadbench %v: exit %d, stderr %q, stdout %q; want exit 2 naming %q and no results",
			args, code, stderr, out, want)
	}
}

// `omb drift -metrics` used to print "metrics: ..." over an empty snapshot:
// the run recorded into a private registry. The export must hold the run.
func TestDriftHonoursObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	m, ts := filepath.Join(dir, "m.json"), filepath.Join(dir, "ts")
	out, stderr, code := offloadbench(t, "omb", "drift", "-nodes", "2", "-ppn", "2", "-iters", "4", "-metrics", m, "-timeseries", ts)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "metrics: "+m) || !strings.Contains(out, "timeseries: "+ts+".jsonl") {
		t.Fatalf("exports not reported:\n%s", out)
	}
	data, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("-metrics wrote an empty snapshot: %d counters, %d histograms", len(snap.Counters), len(snap.Histograms))
	}
	if st, err := os.Stat(ts + ".jsonl"); err != nil || st.Size() == 0 {
		t.Fatalf("-timeseries wrote no series: %v", err)
	}
}

// The tenant runner has no device plumbing, so the tenant words do not
// read -device/-fleet: either stops the run with status 2 naming the flag,
// instead of printing baseline numbers.
func TestTenantRunnersRefuseDeviceFlags(t *testing.T) {
	for _, bm := range []string{"tenants", "drift"} {
		for _, fl := range []string{"-device", "-fleet"} {
			refused(t, fl, "omb", bm, "-nodes", "2", "-ppn", "2", fl, "bf3")
		}
	}
}

// The usage text is built from the word table, the policy registry and the
// shared flags, so it cannot fall behind any of them.
func TestUsageNamesEveryPolicyAndSharedFlag(t *testing.T) {
	want := append(baseline.PolicyNames(), "-device", "-fleet", "-timeseries", "-metrics", "-spans", "-parallel")
	for _, w := range append(words, everything()) {
		want = append(want, w.name)
	}
	for _, args := range [][]string{nil, {"fig2", "-h"}, {"omb", "tenants", "-help"}} {
		_, stderr, code := offloadbench(t, args...)
		if code != 2 {
			t.Fatalf("offloadbench %v: exit %d, want 2", args, code)
		}
		for _, w := range want {
			if !strings.Contains(stderr, w) {
				t.Errorf("offloadbench %v: usage omits %q:\n%s", args, w, stderr)
			}
		}
	}
}

// Flags the pattern word cannot honour stop it with status 2 and a message
// naming the flag: pattern runs have no device plumbing, and only the tenant
// runner samples time series. (`-device bf3` used to print bf2 numbers.)
func TestRefusesFlagsItCannotHonour(t *testing.T) {
	ring := []string{"pattern", "-preset", "ring", "-np", "4", "-size", "4K"}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-device", []string{"-device", "bf3"}},
		{"-fleet", []string{"-fleet", "bf3"}},
		{"-timeseries", []string{"-timeseries", filepath.Join(t.TempDir(), "ts")}},
		{"-device", []string{"-tenants", "2", "-device", "bf3"}},
		{"-nogroupcache", []string{"-tenants", "2", "-nogroupcache"}},
		{"-bgstart", []string{"-bgstart", "1ms"}},
	} {
		refused(t, c.flag, append(ring, c.args...)...)
	}
}

// The tenant runner does sample time series, so -tenants honours the flag.
func TestTenantsHonoursTimeseries(t *testing.T) {
	ts := filepath.Join(t.TempDir(), "ts")
	out, stderr, code := offloadbench(t, "pattern", "-preset", "ring", "-np", "4", "-size", "4K", "-tenants", "2", "-timeseries", ts)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "timeseries: "+ts+".jsonl") {
		t.Fatalf("export not reported:\n%s", out)
	}
	if st, err := os.Stat(ts + ".jsonl"); err != nil || st.Size() == 0 {
		t.Fatalf("-timeseries wrote no series: %v", err)
	}
}

// The command lines that, before the front ends were merged, exited 0 and
// ignored a flag, ran a substitute, panicked, or duplicated a selector.
func TestReproducersExitTwo(t *testing.T) {
	for _, c := range []struct {
		want string
		args string
	}{
		{"-nb", "fig2 -nb 7 -maxranks 3 -seed 9 -memgb 1"},
		{"-scheme", "omb drift -nodes 2 -ppn 2 -iters 2 -scheme Nope -min -5"},
		{fmt.Sprint(baseline.PolicyNames()), "omb ialltoall -nodes 2 -ppn 2 -min 4096 -max 4096 -policy Nope"},
		{`fleet spec "bf2:3" names more than the cluster's 2 nodes`, "omb ialltoall -nodes 2 -ppn 2 -min 4096 -max 4096 -fleet bf2:3"},
		{"-mech", "pattern -preset ring -np 8 -calls 3 -mech staging"},
		// Counts parse used to accept and the run could not honour: the
		// first two panicked in make().
		{"-bgjobs", "omb tenants -nodes 2 -ppn 2 -bgjobs 9223372036854775807"},
		{"-tenants", "pattern -preset ring -np 8 -tenants 9223372036854775807"},
		{"-ppn", "pattern -preset ring -np 8 -ppn 9223372036854775807"},
	} {
		refused(t, c.want, strings.Fields(c.args)...)
	}
}

// Under -policy the cache flags used to be printed but not run: the run
// took the bundle's config whole. Now the bundle's config runs with the
// flags applied, and the header says so.
func TestPatternPolicyHonoursCacheFlags(t *testing.T) {
	ring := []string{"pattern", "-preset", "ring", "-np", "8", "-calls", "3"}
	stats := regexp.MustCompile(`(?m)^stats: .*$`)
	run := func(extra ...string) (header, stats_ string) {
		t.Helper()
		out, stderr, code := offloadbench(t, append(ring, extra...)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, stderr)
		}
		header, _, _ = strings.Cut(out, "\n")
		return header, stats.FindString(out)
	}
	_, uncached := run("-nogroupcache")
	_, cached := run("-policy", "gvmi")
	header, got := run("-policy", "gvmi", "-nogroupcache")
	if !strings.Contains(header, "policy=gvmi") || !strings.Contains(header, "groupcache=false") {
		t.Errorf("header does not show the config that ran: %q", header)
	}
	if got == cached || got != uncached {
		t.Errorf("-policy gvmi -nogroupcache:\n  %s\nwant the uncached run's\n  %s\nnot the cached\n  %s", got, uncached, cached)
	}
	// The flags only disable: bluesmpi's bundle runs without the group
	// cache, and no flag turns it back on.
	header, got = run("-policy", "bluesmpi")
	if !strings.Contains(header, "groupcache=false") || !strings.Contains(got, "group(hit/miss)=0/") {
		t.Errorf("-policy bluesmpi ran with the group cache on:\n  %s\n  %s", header, got)
	}
}

// The words that replaced the omb and patternsim binaries print what those
// binaries printed, byte for byte (testdata/golden, captured at the parent).
func TestMigratedWordsMatchParentOutput(t *testing.T) {
	for _, c := range []struct{ golden, args string }{
		{"omb_ialltoall.txt", "omb ialltoall -nodes 2 -ppn 2 -min 4096 -max 8192"},
		{"omb_pingpong.txt", "omb pingpong -min 4096 -max 4096"},
		{"omb_drift.txt", "omb drift -nodes 2 -ppn 2 -iters 8"},
		{"pattern_ring.txt", "pattern -preset ring -np 8 -calls 3"},
		{"pattern_tenants.txt", "pattern -preset ring -np 4 -ppn 2 -tenants 2"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		out, stderr, code := offloadbench(t, strings.Fields(c.args)...)
		if code != 0 || out != string(want) {
			t.Errorf("offloadbench %s: exit %d (%s), stdout\n%s\nwant\n%s", c.args, code, stderr, out, want)
		}
	}
}

// Every word parses with the arguments it needs, and rejects every flag it
// does not read — a shared one included — naming the flag.
func TestEveryWordRejectsFlagsItDoesNotRead(t *testing.T) {
	var union []string
	for _, w := range words {
		for _, f := range strings.Fields(w.reads) {
			if !slices.Contains(union, f) {
				union = append(union, f)
			}
		}
	}
	for _, w := range append(words, everything()) {
		base := strings.Fields(w.name)
		switch w.name {
		case "snap":
			base = append(base, "fig13")
		case "pattern":
			base = append(base, "-preset", "ring")
		}
		if pl, err := parse(base); err != nil || pl == nil {
			t.Errorf("parse(%q) = %v, %v; want a plan", base, pl, err)
		}
		reads := strings.Fields(w.reads)
		for _, f := range union {
			if slices.Contains(reads, f) {
				continue
			}
			args := append(slices.Clone(base), "-"+f, "1")
			if _, err := parse(args); err == nil || !strings.Contains(err.Error(), "-"+f) {
				t.Errorf("parse(%q) = %v; want an error naming -%s", args, err, f)
			}
		}
	}
}

// The shared sinks' exports are pinned: the sha256 of stdout, with the
// lines that name an export path dropped, and of every file written, for
// one command line per way a sink reaches a run — one recorder per message
// size under all three sinks, a parallel sweep whose jobs all run on the
// -device profile, and the tenant sweep's labelled bg%d recorders. M, S
// and T stand for -metrics, -spans and -timeseries paths in a fresh
// directory.
func TestSinkExportsFrozen(t *testing.T) {
	for _, c := range []struct {
		args string
		want map[string]string // "stdout" or a file name -> sha256, hex
	}{
		{"omb ialltoall -nodes 2 -ppn 2 -min 4096 -max 16384 -iters 2 -device bf3 -metrics M -spans S -timeseries T", map[string]string{
			"stdout":   "4b3f04438caa0c14d76ce6b350c0ebad4b2968842fe17c95595de506af4b2112",
			"M":        "31d83d04e3e4583fedceca46cf470361d382d772426fa4c4652dc4d77644127e",
			"M.prom":   "6c2d7fce3a94adc29b93ffdc9549a7446e2527a6777864a84aabbb438238e52e",
			"S":        "a80b748f9386bdacad5e058e0ed4b01e7f476cb01e92255fe1341e93ac333019",
			"S.folded": "342bf86db0b04de3e5c48338893d67b8af912278acf63311bf5ccae3354e270b",
			"S.jsonl":  "f43f524003d2cbd4bd8459afe91e29e9fbc760d891f73a1779a63815590a8ffe",
			"T.jsonl":  "97c3033f118fd53f3200da87c2fa7eba210f260554dfe8f855d457e809bb3d59",
			"T.prom":   "fb84e5722d26a8a143a0c24bd2e7f5bae0fbf69744a8e2dc03528de89729216b",
		}},
		{"fig4 -iters 2 -parallel 2 -device bf3 -metrics M", map[string]string{
			"stdout": "5e8c5126d523b0cf8adb38240443718882b4a23b3c407ee33f2fb12c053a8dc9",
			"M":      "ed87acd6381916b6670039b2b3792c01e6d44c2a5efa92610b609bdb475af495",
			"M.prom": "a899e0974d77093af346e4cc19532ba0f5d1e2bdf9ce27e9bbfbf1361e1b401c",
		}},
		{"omb tenants -nodes 2 -ppn 2 -iters 2 -bgjobs 2 -parallel 2 -metrics M -timeseries T", map[string]string{
			"stdout":  "6b4897daee98967f727f3775062491f14fd8d1153f8e174edaa18fe58814d310",
			"M":       "55d98174e25cae1dc80455dd4b8d47db29ff07227bb4f253def7fe4e9948aec3",
			"M.prom":  "253e518a6515c8ba2b70426e6f72808bbd7975ceeeb5c3e7a1082a57f8a42ef4",
			"T.jsonl": "b98ebd8d498c2ba55d3647357b9202585fabe8526d100b62c47a93f86466c184",
			"T.prom":  "6026437e2c6586ffa76d2e61a31cb5ee8ff691385008dbcc3931e0758f7bcc4a",
		}},
	} {
		dir := t.TempDir()
		args := strings.Fields(c.args)
		for i, a := range args {
			if a == "M" || a == "S" || a == "T" {
				args[i] = filepath.Join(dir, a)
			}
		}
		out, stderr, code := offloadbench(t, args...)
		if code != 0 {
			t.Fatalf("offloadbench %s: exit %d: %s", c.args, code, stderr)
		}
		var kept []string
		for _, line := range strings.SplitAfter(out, "\n") {
			if !strings.Contains(line, dir) {
				kept = append(kept, line)
			}
		}
		got := map[string]string{"stdout": sha(strings.Join(kept, ""))}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[f.Name()] = sha(string(data))
		}
		if !maps.Equal(got, c.want) {
			t.Errorf("offloadbench %s: exports moved\n got %#v\nwant %#v", c.args, got, c.want)
		}
	}
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// Two plans executed in one process share no sink: a run without -metrics
// used to record into the registry an earlier run's -metrics installed,
// because the sinks were package state that nothing reset.
func TestExecTwiceInProcess(t *testing.T) {
	line := "omb ialltoall -nodes 2 -ppn 2 -min 4096 -max 4096 -iters 2"
	first, err := parse(strings.Fields(line + " -metrics " + filepath.Join(t.TempDir(), "m.json")))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.exec(io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	reg := first.p.env.Met
	var before, after bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	second, err := parse(strings.Fields(line))
	if err != nil {
		t.Fatal(err)
	}
	if err := second.exec(io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("the second run recorded into the first run's registry: snapshot %d -> %d bytes", before.Len(), after.Len())
	}
}

// inProcess parses and executes one command line in this process and
// returns what it printed to its results and its notes writers.
func inProcess(t *testing.T, line string) (stdout, stderr string) {
	t.Helper()
	pl, err := parse(strings.Fields(line))
	if err != nil {
		t.Fatalf("parse(%q): %v", line, err)
	}
	var out, errOut bytes.Buffer
	if err := pl.exec(&out, &errOut); err != nil {
		t.Fatalf("offloadbench %s: %v", line, err)
	}
	return out.String(), errOut.String()
}

// lineFields reports whether out has a line whose fields are want's.
func lineFields(out, want string) bool {
	for _, line := range strings.Split(out, "\n") {
		if slices.Equal(strings.Fields(line), strings.Fields(want)) {
			return true
		}
	}
	return false
}

// The words only make targets ran (snap -check, scale, critical-path,
// timeline) run in process at small shapes and print their key lines: the
// checked file's summary, the 128-rank scale row and the footprint line,
// both critical-path sections with their attribution totals, and the
// timeline's exports, traces and SLO summary.
func TestMakeWordsInProcess(t *testing.T) {
	t.Parallel()
	out, _ := inProcess(t, "snap -check fig13 -o "+filepath.Join("..", "..", "BENCH_fig13.json"))
	if want := "checked " + filepath.Join("..", "..", "BENCH_fig13.json") + " (3 series, 190 counter series)\n"; out != want {
		t.Errorf("snap -check fig13 printed %q, want %q", out, want)
	}

	out, stderr := inProcess(t, "scale -maxranks 128 -iters 1")
	if !lineFields(out, "128 43047.35 3822.51 6770.47 91.1% 43.5% 99.9%") || !strings.Contains(out, "1 rank counts up to 128, claims validated,") {
		t.Errorf("scale -maxranks 128 -iters 1 printed:\n%s", out)
	}
	if !regexp.MustCompile(`^scale footprint: 128 ranks: \d+ B allocated per \(rank, peer\) pair, peak RSS \d+ MB\n$`).MatchString(stderr) {
		t.Errorf("scale footprint line: %q", stderr)
	}

	out, _ = inProcess(t, "critical-path -ppn 2 -iters 1")
	for _, want := range []string{
		"=== critical path: ialltoall np=4 size=32768 (proposed) ===",
		"=== critical path: ialltoall under chaos (rate 1e-3, seed 42) ===",
		"rank0 coll/ialltoall [187.90us, 220.94us] latency 33.04us",
		"attribution over 24 roots:",
		"total 835.73us",
		"pure_comm=29.24us overall=34.78us",
		"overall=34.78us verified=true retries=0",
	} {
		if !lineFields(out, want) {
			t.Errorf("critical-path -ppn 2 -iters 1: no line %q in\n%s", want, out)
		}
	}

	tl := filepath.Join(t.TempDir(), "tl")
	out, _ = inProcess(t, "timeline -ppn 2 -iters 4 -o "+tl)
	for _, want := range []string{
		"timeseries: " + tl + ".jsonl, " + tl + ".prom (4 runs)",
		"trace: " + tl + ".measure.trace.json (171876 spans, 4768 counter samples)",
		"trace: " + tl + ".feedback.trace.json (171876 spans, 4768 counter samples)",
		"feedback pre 16 61.00 61.00 0.98 46.7 0.0 13.5 17.1 22.7 0.0 0 2 0",
		"gvmi 0/ 16 iterations violated, worst window burn 0.0x budget",
		"feedback 0/ 16 iterations violated, worst window burn 0.0x budget",
	} {
		if !lineFields(out, want) {
			t.Errorf("timeline -ppn 2 -iters 4: no line %q in\n%s", want, out)
		}
	}
	for _, ext := range []string{".jsonl", ".prom", ".measure.trace.json", ".feedback.trace.json"} {
		if st, err := os.Stat(tl + ext); err != nil || st.Size() == 0 {
			t.Errorf("timeline wrote no %s: %v", ext, err)
		}
	}
}

// The figure words no make target runs (fig3, fig11, fig13, chaos, fleet,
// drift, and snap NAME writing a file) run in process at small shapes and
// print one pinned line each; snap tenants writes the checked-in file's
// bytes.
func TestFigureWordsInProcess(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		line string
		want []string
	}{
		{"fig3 -iters 1", []string{"1K 2.91 1.46 0.50"}},
		{"fig11 -ppn 1 -iters 1 -warmup 0", []string{"256^3 0.68 1.00 100.69us 147.29us"}},
		{"fig13 -ppn 1 -iters 1 -warmup 0", []string{"8K 937.48 38.10 19.95 95.9% -91.0%"}},
		{"chaos -ppn 1 -iters 1 -warmup 0", []string{"0.01 32768 28.52 34.06 80.6% 0 0 0 0 0 true"}},
		{"fleet", []string{"aware 4.80 6.13 72.2%"}},
		{"drift -ppn 1 -iters 4", []string{
			"hostdirect 70.28 70.28 0.00 0.00 0",
			"feedback pre 8 61.00 61.00 0.49 81.9 0.0 0.5 0.1 17.5 0.0 0 0 0",
		}},
	} {
		out, _ := inProcess(t, c.line)
		for _, want := range c.want {
			if !lineFields(out, want) {
				t.Errorf("%s: no line %q in\n%s", c.line, want, out)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_tenants.json")
	if out, _ := inProcess(t, "snap tenants -o "+path); out != "wrote "+path+" (9 points, crossover verified, 210 counter series)\n" {
		t.Errorf("snap tenants printed %q", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_tenants.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("snap tenants -o wrote other bytes than the checked-in BENCH_tenants.json")
	}
}
