package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the real main (flag parsing, os.Exit codes and
// all) by re-executing the test binary with runMainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "PATTERNSIM_TEST_RUN_MAIN"

func patternsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("patternsim %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// Flags the run cannot honour stop it with status 2 and a message naming
// the flag: pattern runs have no device plumbing, and only the tenant
// runner samples time series. (`-device bf3` used to print bf2 numbers.)
func TestRefusesFlagsItCannotHonour(t *testing.T) {
	ring := []string{"-preset", "ring", "-np", "4", "-size", "4K"}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-device", append([]string{"-device", "bf3"}, ring...)},
		{"-fleet", append([]string{"-fleet", "bf3"}, ring...)},
		{"-timeseries", append([]string{"-timeseries", filepath.Join(t.TempDir(), "ts")}, ring...)},
		{"-device", append([]string{"-tenants", "2", "-device", "bf3"}, ring...)},
	} {
		out, stderr, code := patternsim(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.flag+" is not supported") || out != "" {
			t.Errorf("patternsim %v: exit %d, stderr %q, stdout %q; want exit 2 naming %s and no results",
				c.args, code, stderr, out, c.flag)
		}
	}
}

// The tenant runner does sample time series, so -tenants honours the flag.
func TestTenantsHonoursTimeseries(t *testing.T) {
	ts := filepath.Join(t.TempDir(), "ts")
	out, stderr, code := patternsim(t, "-preset", "ring", "-np", "4", "-size", "4K", "-tenants", "2", "-timeseries", ts)
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
