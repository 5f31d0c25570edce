package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/metrics"
)

// TestMain lets the tests run the real main (flag parsing, os.Exit codes and
// all) by re-executing the test binary with ombRunMain set.
func TestMain(m *testing.M) {
	if os.Getenv(ombRunMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const ombRunMain = "OMB_TEST_RUN_MAIN"

func omb(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), ombRunMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("omb %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// `omb drift -metrics` used to print "metrics: ..." over an empty snapshot:
// the run recorded into a private registry. The export must hold the run.
func TestDriftHonoursObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	m, ts := filepath.Join(dir, "m.json"), filepath.Join(dir, "ts")
	out, stderr, code := omb(t, "drift", "-nodes", "2", "-ppn", "2", "-iters", "4", "-metrics", m, "-timeseries", ts)
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

// The tenant runner has no device plumbing: -device/-fleet must stop the
// run with status 2 and name the flag, not print baseline numbers.
func TestTenantRunnersRefuseDeviceFlags(t *testing.T) {
	for _, bm := range []string{"tenants", "drift"} {
		for _, fl := range []string{"-device", "-fleet"} {
			out, stderr, code := omb(t, bm, "-nodes", "2", "-ppn", "2", fl, "bf3")
			if code != 2 || !strings.Contains(stderr, fl+" is not supported by omb "+bm) || out != "" {
				t.Errorf("omb %s %s bf3: exit %d, stderr %q, stdout %q; want exit 2 naming the flag and no results",
					bm, fl, code, stderr, out)
			}
		}
	}
}

// The usage text is built from the policy registry and names every shared
// flag, so it cannot fall behind them again.
func TestUsageNamesEveryPolicyAndSharedFlag(t *testing.T) {
	_, stderr, code := omb(t)
	if code != 2 {
		t.Fatalf("omb with no benchmark: exit %d, want 2", code)
	}
	want := append(baseline.PolicyNames(), "-device", "-fleet", "-timeseries", "-metrics", "-spans", "-parallel")
	for _, w := range want {
		if !strings.Contains(stderr, w) {
			t.Errorf("usage omits %q:\n%s", w, stderr)
		}
	}
}
