package telemetry

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// SLOConfig describes one tenant's latency objective.
type SLOConfig struct {
	// Objective is the per-iteration latency objective. 0 disables the
	// tracker entirely — no series are created, so runs without SLOs
	// export byte-identically to runs predating the tracker.
	Objective sim.Time
	// Target is the fraction of iterations that must meet the objective
	// (the SLO target, e.g. 0.99). 0 means DefaultSLOTarget.
	Target float64
	// Window is the sliding-window length (iterations) of the burn-rate
	// estimate. 0 means DefaultSLOWindow.
	Window int
}

// DefaultSLOTarget is the default SLO target: 99% of iterations in
// objective.
const DefaultSLOTarget = 0.99

// DefaultSLOWindow is the default burn-rate window length.
const DefaultSLOWindow = 32

// SLOTracker counts latency-objective violations for one tenant and keeps
// a windowed burn rate — the fraction of the error budget (1 − target) the
// last Window iterations consumed, in the SRE sense: burn 1.0 means
// violations arrive exactly at budget, above 1.0 the SLO is burning down.
//
// Series appear in the registry under layer "slo", entity "latency", with
// the tenant label: counters "samples" and "violations", a Set-gauge
// "burn_rate" (most recent window) and a SetMax-gauge "burn_rate_max"
// (worst window seen). All methods are nil-safe, and a tracker never
// consumes virtual time.
type SLOTracker struct {
	objective sim.Time
	budget    float64

	win  []bool // violation flags, ring
	wi   int
	wn   int
	viol int

	samples    *metrics.Counter
	violations *metrics.Counter
	burn       *metrics.Gauge
	burnMax    *metrics.Gauge
}

// NewSLOTracker returns a tracker recording into reg under the tenant
// label, or nil (inert) when cfg.Objective is 0 — zero-valued configs cost
// nothing. A nil registry also returns nil: violation state would be
// observable nowhere.
func NewSLOTracker(reg *metrics.Registry, tenant string, cfg SLOConfig) *SLOTracker {
	if cfg.Objective <= 0 || reg == nil {
		return nil
	}
	if cfg.Target <= 0 || cfg.Target >= 1 {
		cfg.Target = DefaultSLOTarget
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultSLOWindow
	}
	return &SLOTracker{
		objective:  cfg.Objective,
		budget:     1 - cfg.Target,
		win:        make([]bool, cfg.Window),
		samples:    reg.CounterT("slo", "latency", "samples", tenant),
		violations: reg.CounterT("slo", "latency", "violations", tenant),
		burn:       reg.GaugeT("slo", "latency", "burn_rate", tenant),
		burnMax:    reg.GaugeT("slo", "latency", "burn_rate_max", tenant),
	}
}

// Observe records one iteration latency; nil-safe.
func (t *SLOTracker) Observe(d sim.Time) {
	if t == nil {
		return
	}
	t.samples.Inc()
	bad := d > t.objective
	if bad {
		t.violations.Inc()
	}
	if t.wn == len(t.win) {
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
	t.wi = (t.wi + 1) % len(t.win)
	rate := float64(t.viol) / float64(t.wn) / t.budget
	t.burn.Set(rate)
	t.burnMax.SetMax(rate)
}
