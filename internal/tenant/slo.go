package tenant

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// sloTarget is the fraction of a job's iterations that must meet its
// objective. It is a typed constant so the error budget 1 − sloTarget is
// the float64 difference the exported burn rates divide by, not an exact 0.01.
const sloTarget float64 = 0.99

// sloWindow is the burn-rate window, in iterations.
const sloWindow = 32

// sloTracker counts one job's latency-objective violations and keeps a
// windowed burn rate — the fraction of the error budget (1 − sloTarget)
// the last sloWindow iterations consumed, in the SRE sense: burn 1.0 means
// violations arrive exactly at budget, above 1.0 the SLO is burning down.
//
// Series appear in the registry under layer "slo", entity "latency", with
// the tenant label: counters "samples" and "violations", a Set-gauge
// "burn_rate" (most recent window) and a SetMax-gauge "burn_rate_max"
// (worst window seen). A nil tracker is inert, and a tracker never
// consumes virtual time.
type sloTracker struct {
	objective sim.Time

	win          [sloWindow]bool // violation flags, ring
	wi, wn, viol int

	samples, violations *metrics.Counter
	burn, burnMax       *metrics.Gauge
}

// newSLOTracker returns a tracker recording into reg under the tenant
// label, or nil when the job sets no objective or the run has no registry
// (violation state would be observable nowhere).
func newSLOTracker(reg *metrics.Registry, tenant string, objective sim.Time) *sloTracker {
	if objective <= 0 || reg == nil {
		return nil
	}
	return &sloTracker{
		objective:  objective,
		samples:    reg.CounterT("slo", "latency", "samples", tenant),
		violations: reg.CounterT("slo", "latency", "violations", tenant),
		burn:       reg.GaugeT("slo", "latency", "burn_rate", tenant),
		burnMax:    reg.GaugeT("slo", "latency", "burn_rate_max", tenant),
	}
}

// observe records one iteration latency; nil-safe.
func (t *sloTracker) observe(d sim.Time) {
	if t == nil {
		return
	}
	t.samples.Inc()
	bad := d > t.objective
	if bad {
		t.violations.Inc()
	}
	if t.wn == sloWindow {
		if t.win[t.wi] {
			t.viol--
		}
	} else {
		t.wn++
	}
	t.win[t.wi] = bad
	if bad {
		t.viol++
	}
	t.wi = (t.wi + 1) % sloWindow
	rate := float64(t.viol) / float64(t.wn) / (1 - sloTarget)
	t.burn.Set(rate)
	t.burnMax.SetMax(rate)
}
