package metrics

import (
	"testing"

	"repro/internal/sim"
)

// Percentile follows the nearest-rank-floor convention (index
// (len-1)*p/100) on known distributions, including the degenerate cases.
func TestPercentileKnownDistributions(t *testing.T) {
	seq := make([]sim.Time, 100) // 1..100
	for i := range seq {
		seq[i] = sim.Time(i + 1)
	}
	cases := []struct {
		name   string
		sorted []sim.Time
		p      int
		want   sim.Time
	}{
		{"empty", nil, 50, 0},
		{"single", []sim.Time{42}, 0, 42},
		{"single-p100", []sim.Time{42}, 100, 42},
		{"uniform-p0", seq, 0, 1},
		{"uniform-p50", seq, 50, 50}, // index 99*50/100 = 49
		{"uniform-p90", seq, 90, 90}, // index 89
		{"uniform-p99", seq, 99, 99}, // index 98
		{"uniform-p100", seq, 100, 100},
		{"five-p50", []sim.Time{10, 20, 30, 40, 50}, 50, 30},
		{"five-p99", []sim.Time{10, 20, 30, 40, 50}, 99, 40}, // index 4*99/100 = 3
		{"clamp-low", seq, -10, 1},
		{"clamp-high", seq, 200, 100},
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: Percentile(p=%d) = %d, want %d", c.name, c.p, got, c.want)
		}
	}
}
