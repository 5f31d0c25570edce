package fault

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// A nil injector must behave as "no faults, no draws" everywhere.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if in.Config() != nil {
		t.Fatal("nil injector has a config")
	}
	if f := in.FateFor(); f != FateDeliver {
		t.Fatalf("nil FateFor = %v, want deliver", f)
	}
	if in.CQError() || in.RegFail() {
		t.Fatal("nil injector injected an error")
	}
	if in.Spike() != 0 {
		t.Fatal("nil injector has a delay spike")
	}
	if got := in.Retry(); got != DefaultRetry() {
		t.Fatalf("nil Retry = %+v, want defaults", got)
	}
	in.Note(0, "x", "y", "z") // must not panic
	if in.Tracing() {
		t.Fatal("nil injector reports tracing")
	}
}

// Tracing follows the late-bound log: false until the resolver returns a
// live log, and Note records exactly when it is true.
func TestTracingFollowsLateBoundLog(t *testing.T) {
	in := NewInjector(DefaultConfig(1))
	if in.Tracing() {
		t.Fatal("tracing with no resolver attached")
	}
	var log *trace.Log
	in.TraceFn = func() *trace.Log { return log }
	if in.Tracing() {
		t.Fatal("tracing while the resolver returns a nil log")
	}
	in.Note(1, "fabric", "drop", "lost")
	log = trace.New(0)
	if !in.Tracing() {
		t.Fatal("not tracing once the resolver returns a log")
	}
	in.Note(2, "fabric", "drop", "kept")
	if ev := log.Events(); len(ev) != 1 || ev[0].Detail != "kept" {
		t.Fatalf("log holds %+v, want only the event noted while tracing", ev)
	}
}

// Zero rates must not consume randomness, so interleaving silent hooks
// cannot perturb the stream used by active ones.
func TestZeroRatesDrawNothing(t *testing.T) {
	cfg := DefaultConfig(7) // all rates zero
	in := NewInjector(cfg)
	for i := 0; i < 100; i++ {
		if in.FateFor() != FateDeliver || in.CQError() || in.RegFail() {
			t.Fatal("zero-rate injector injected a fault")
		}
	}
	if in.Stats != (Stats{}) {
		t.Fatalf("zero-rate injector counted faults: %+v", in.Stats)
	}
	// The stream is untouched: a fresh injector with the same seed draws the
	// same first value for an active hook.
	a := NewInjector(Scaled(7, 0.5))
	b := in
	b.cfg = Scaled(7, 0.5) // reuse the (undrawn) stream with active rates
	for i := 0; i < 200; i++ {
		if a.FateFor() != b.FateFor() {
			t.Fatalf("draw %d diverged after silent hooks", i)
		}
	}
}

// Two injectors with the same seed must produce the same fault sequence.
func TestDeterministicDraws(t *testing.T) {
	a := NewInjector(Scaled(42, 0.3))
	b := NewInjector(Scaled(42, 0.3))
	for i := 0; i < 1000; i++ {
		if a.FateFor() != b.FateFor() {
			t.Fatalf("FateFor diverged at draw %d", i)
		}
		if a.CQError() != b.CQError() {
			t.Fatalf("CQError diverged at draw %d", i)
		}
		if a.RegFail() != b.RegFail() {
			t.Fatalf("RegFail diverged at draw %d", i)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Drops == 0 || a.Stats.Corrupts == 0 || a.Stats.Delays == 0 {
		t.Fatalf("rate 0.3 over 1000 draws injected nothing: %+v", a.Stats)
	}
}

// Scaled splits the aggregate rate 1/2 drop, 1/4 corrupt, 1/4 delay, 1/4 CQE.
func TestScaledSplit(t *testing.T) {
	c := Scaled(1, 0.02)
	if c.DropRate != 0.01 || c.CorruptRate != 0.005 || c.DelayRate != 0.005 || c.CQErrorRate != 0.005 {
		t.Fatalf("Scaled(0.02) = %+v", c)
	}
	if c.RegFailRate != 0 {
		t.Fatal("Scaled sets RegFailRate")
	}
}

// Delay doubles per attempt and caps at BackoffMax.
func TestRetryBackoff(t *testing.T) {
	rc := RetryConfig{MaxAttempts: 8, Backoff: 2 * sim.Microsecond, BackoffMax: 16 * sim.Microsecond}
	want := []sim.Time{
		2 * sim.Microsecond, 4 * sim.Microsecond, 8 * sim.Microsecond,
		16 * sim.Microsecond, 16 * sim.Microsecond, 16 * sim.Microsecond,
	}
	for i, w := range want {
		if got := rc.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Zero fields fall back to sane values.
	var zero RetryConfig
	if zero.Delay(1) <= 0 {
		t.Fatal("zero-config Delay not positive")
	}
	cfg := &Config{}
	if got := cfg.RetryOrDefault(); got != DefaultRetry() {
		t.Fatalf("RetryOrDefault on zero config = %+v", got)
	}
}

func TestFateString(t *testing.T) {
	for f, s := range map[Fate]string{
		FateDeliver: "deliver", FateDrop: "drop", FateCorrupt: "corrupt", FateDelay: "delay",
	} {
		if f.String() != s {
			t.Fatalf("%d.String() = %q, want %q", f, f.String(), s)
		}
	}
}
