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
	cases := []struct {
		name   string
		figure func() *bench.Table
		rows   []string
	}{
		{"drift", func() *bench.Table { return Drift(2, 2, 16) }, []string{"gvmi", "hostdirect", "measure", "feedback"}},
		{"tenants", func() *bench.Table { return Tenants(2, 2, 8) }, []string{"gvmi", "hostdirect", "adaptive"}},
	}
	for _, c := range cases {
		render := func(workers int) string {
			var buf bytes.Buffer
			withParallelism(t, workers, func() {
				c.figure().Fprint(&buf)
			})
			return buf.String()
		}
		serial := render(1)
		parallel := render(4)
		if serial != parallel {
			t.Fatalf("%s figure diverges between worker counts:\nserial:\n%s\nparallel:\n%s", c.name, serial, parallel)
		}
		for _, pol := range c.rows {
			if !strings.Contains(serial, pol) {
				t.Fatalf("%s figure is missing the %s row:\n%s", c.name, pol, serial)
			}
		}
	}
}
