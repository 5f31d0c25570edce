// The shared percentile helper: exact nearest-rank percentiles over recorded
// sample slices (bench sweeps, tenant iteration latencies). This file is the
// single home so every table and exporter agrees on the convention.

package metrics

import "repro/internal/sim"

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of an
// ascending-sorted sample slice using the nearest-rank-floor convention
// every bench table in this repo uses: index (len-1)*p/100 in integer
// arithmetic. An empty slice returns 0.
func Percentile(sorted []sim.Time, p int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	return sorted[(len(sorted)-1)*p/100]
}
