package tenant

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSLOTracker(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := newSLOTracker(reg, "fg", 100)
	if tr == nil {
		t.Fatal("tracker not created")
	}
	samples := reg.CounterT("slo", "latency", "samples", "fg")
	violations := reg.CounterT("slo", "latency", "violations", "fg")
	burn := reg.GaugeT("slo", "latency", "burn_rate", "fg")
	burnMax := reg.GaugeT("slo", "latency", "burn_rate_max", "fg")

	// One violation in one sample spends the whole window on the 1% budget:
	// a burn of 100x, which the timeline word prints as "100.0x budget". The
	// divisor is the float64 difference 1 - 0.99, so the exact value is
	// 1 / (1 - 0.99) evaluated at run time.
	target := 0.99
	tr.observe(150)
	if got, want := burn.Value(), 1/(1-target); got != want || fmt.Sprintf("%.1f", got) != "100.0" {
		t.Fatalf("burn rate after one violation = %v, want %v", got, want)
	}
	// Objective met for a full window: the violation slides out.
	for range sloWindow {
		tr.observe(100)
	}
	if got := burn.Value(); got != 0 {
		t.Fatalf("burn rate after a clean window = %g, want 0", got)
	}
	if samples.Value() != sloWindow+1 || violations.Value() != 1 {
		t.Fatalf("samples/violations = %d/%d, want %d/1", samples.Value(), violations.Value(), sloWindow+1)
	}
	// The worst window stays the first one.
	if got := burnMax.Value(); got != 1/(1-target) {
		t.Fatalf("burn_rate_max = %v, want %v", got, 1/(1-target))
	}
	// One violation in a full window: 1/32 of the iterations over a 1%
	// budget.
	tr.observe(101)
	if got, want := burn.Value(), 1.0/sloWindow/(1-target); got != want {
		t.Fatalf("burn rate with one violation in a full window = %v, want %v", got, want)
	}

	// No objective, or no registry, and there is no tracker; a nil one is
	// inert.
	if newSLOTracker(reg, "fg", 0) != nil {
		t.Fatal("zero objective created a tracker")
	}
	if newSLOTracker(nil, "fg", 100) != nil {
		t.Fatal("nil registry created a tracker")
	}
	var nilTr *sloTracker
	nilTr.observe(sim.Millisecond)
}
