package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
)

// The multi-tenant figures must render byte-identically at any sweep worker
// count (the determinism contract every figure sweep carries). Short runs
// are enough for the contract — the full-length crossover and re-route
// claims are asserted by the bench baselines.
func TestTenantFiguresDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		figure func(env bench.SweepEnv) *bench.Table
		rows   []string
	}{
		{"drift", func(env bench.SweepEnv) *bench.Table { return Drift(env, 2, 2, 16) }, []string{"gvmi", "hostdirect", "measure", "feedback"}},
		{"tenants", func(env bench.SweepEnv) *bench.Table { return Tenants(env, 2, 2, 8) }, []string{"gvmi", "hostdirect", "adaptive"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			render := func(workers int) string {
				var buf bytes.Buffer
				c.figure(bench.SweepEnv{Parallel: workers}).Fprint(&buf)
				return buf.String()
			}
			serial := render(1)
			parallel := render(4)
			if serial != parallel {
				t.Fatalf("figure diverges between worker counts:\nserial:\n%s\nparallel:\n%s", serial, parallel)
			}
			for _, pol := range c.rows {
				if !strings.Contains(serial, pol) {
					t.Fatalf("figure is missing the %s row:\n%s", pol, serial)
				}
			}
		})
	}
}
