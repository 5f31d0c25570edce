package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/fault"
	"repro/internal/sim"
)

var updateChaosGolden = flag.Bool("update", false, "rewrite testdata/chaos_golden.json from this build")

const chaosGoldenFile = "testdata/chaos_golden.json"

// chaosGolden is the pinned outcome of every chaos case: the full result of
// each run, and the SHA-256 of the span JSONL of each traced one.
type chaosGolden struct {
	Runs  map[string]ChaosResult `json:"runs"`
	Spans map[string]string      `json:"spans"`
}

type chaosCase struct {
	name   string
	opt    Options
	plan   *fault.Config
	rate   float64
	size   int
	traced bool
}

// chaosCases are the fault plans the golden pins: the scaled sweep at three
// rates and two sizes on the Proposed scheme, the same top rate on the host
// and staged schemes (MPI rendezvous, staging reads), a crash, a crash with
// restart, that restart plan with every fault kind on top, and a BluesMPI
// crash and crash with restart (staged leases in flight). Two of them
// are traced, so the span records of retries, failures and failover are
// pinned too.
func chaosCases() []chaosCase {
	var cs []chaosCase
	for _, size := range []int{4096, 16384} {
		for _, r := range []float64{0, 0.02, 0.1} {
			cs = append(cs, chaosCase{name: "proposed", opt: guardOpt(), plan: fault.Scaled(42, r), rate: r, size: size})
		}
	}
	for _, scheme := range []string{baseline.NameIntelMPI, baseline.NameBluesMPI} {
		opt := guardOpt()
		opt.Scheme = scheme
		cs = append(cs, chaosCase{name: scheme, opt: opt, plan: fault.Scaled(42, 0.1), rate: 0.1, size: 32768})
	}
	cs = append(cs, chaosCase{name: "traced", opt: guardOpt(), plan: fault.Scaled(7, 0.1), rate: 0.1, size: 8192, traced: true})

	crash := fault.DefaultConfig(1)
	crash.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond}}
	cs = append(cs, chaosCase{name: "crash", opt: smallCrashOpt(baseline.NameProposed), plan: crash, size: 8192})
	restart := fault.DefaultConfig(2)
	restart.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond, RestartAfter: 15 * sim.Microsecond}}
	cs = append(cs, chaosCase{name: "crash-restart", opt: smallCrashOpt(baseline.NameProposed), plan: restart, size: 8192})
	all := fault.Scaled(7, 5e-2)
	all.RegFailRate = 0.2
	all.Crashes = restart.Crashes
	opt := guardOpt()
	opt.ProxiesPerDPU = 1
	cs = append(cs, chaosCase{name: "crash-restart-faults", opt: opt, plan: all, rate: 5e-2, size: 8192, traced: true})

	// BluesMPI crashes land in the last call, while its staged transfers
	// hold stage-buffer leases; the restart comes back before they have all
	// landed, so some leases return to the pool of the restarted proxy. (An
	// earlier crash hangs BluesMPI: with no group cache every call gathers
	// again, and a failed-over host no longer answers its peers' gathers.)
	blues := smallCrashOpt(baseline.NameBluesMPI)
	bcrash := fault.DefaultConfig(1)
	bcrash.Crashes = []fault.Crash{{Proxy: 0, At: 7326 * sim.Microsecond}}
	cs = append(cs, chaosCase{name: "BluesMPI-crash", opt: blues, plan: bcrash, size: 8192})
	brestart := fault.DefaultConfig(2)
	brestart.Crashes = []fault.Crash{{Proxy: 0, At: 7318 * sim.Microsecond, RestartAfter: sim.Microsecond}}
	cs = append(cs, chaosCase{name: "BluesMPI-crash-restart", opt: blues, plan: brestart, size: 8192})
	return cs
}

// runChaosCases measures every case and hashes the traced ones' spans.
func runChaosCases(t *testing.T) chaosGolden {
	t.Helper()
	g := chaosGolden{Runs: map[string]ChaosResult{}, Spans: map[string]string{}}
	for _, c := range chaosCases() {
		key := fmt.Sprintf("%s/%g/%d", c.name, c.rate, c.size)
		if !c.traced {
			g.Runs[key] = MeasureChaosIalltoall(c.opt, c.plan, c.rate, c.size, 1, 2)
			continue
		}
		sc, r := CollectChaosSpans(c.opt, c.plan, c.rate, c.size, 1, 2)
		g.Runs[key] = r
		h := sha256.New()
		if err := sc.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		g.Spans[key] = hex.EncodeToString(h.Sum(nil))
	}
	return g
}

// Every chaos case reproduces, field for field and span for span, the
// outcome recorded in testdata/chaos_golden.json: virtual times, NBC
// timings, fault and core counters, payload verification, and the span
// records of the traced runs. `go test -run TestChaosMatchesParentGolden
// -update` rewrites the file after an intended change of fault behaviour.
func TestChaosMatchesParentGolden(t *testing.T) {
	t.Parallel()
	got := runChaosCases(t)
	path := filepath.FromSlash(chaosGoldenFile)
	if *updateChaosGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want chaosGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(want.Runs) || len(got.Spans) != len(want.Spans) {
		t.Fatalf("%d runs / %d traced, golden has %d / %d", len(got.Runs), len(got.Spans), len(want.Runs), len(want.Spans))
	}
	for key, w := range want.Runs {
		if g := got.Runs[key]; !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("%s:\n got %s\nwant %s", key, gj, wj)
		}
	}
	for key, w := range want.Spans {
		if g := got.Spans[key]; g != w {
			t.Errorf("%s: span JSONL hashes to %s, want %s", key, g, w)
		}
	}
}
