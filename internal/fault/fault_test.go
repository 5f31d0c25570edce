package fault

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/span"
)

// A nil injector must behave as "no faults, no draws" everywhere.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
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
	in.Note(0, span.ClassRank, "x", "y", "z") // must not panic
	if in.Tracing() {
		t.Fatal("nil injector reports tracing")
	}
}

// Tracing means "a collector is attached": Note then records one
// instantaneous fault-layer root span carrying the detail, and without a
// collector it records nothing and allocates nothing.
func TestNoteRecordsInstantFaultSpan(t *testing.T) {
	quiet := NewInjector(DefaultConfig(1), nil)
	if quiet.Tracing() {
		t.Fatal("tracing with no collector attached")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		quiet.Note(1, span.ClassHCA, "n0.host", "drop", "lost")
	}); allocs != 0 {
		t.Fatalf("Note without a collector allocated %.1f objects per call, want 0", allocs)
	}

	sc := span.New(0)
	in := NewInjector(DefaultConfig(1), sc)
	if !in.Tracing() {
		t.Fatal("not tracing with a collector attached")
	}
	in.Note(7, span.ClassProxy, "proxy3", "crash", "process killed")
	if sc.Len() != 1 {
		t.Fatalf("collector holds %d spans, want 1", sc.Len())
	}
	got := sc.Spans()[0]
	want := span.Span{
		ID: 1, Class: span.ClassProxy, Entity: "proxy3", Layer: "fault", Name: "crash",
		Begin: 7, End: 7, Ended: true, Attrs: []span.Attr{{Key: "detail", Str: "process killed"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("noted span = %+v, want %+v", got, want)
	}
	if roots := sc.RootsNamed("fault", "crash"); len(roots) != 1 {
		t.Fatalf("RootsNamed(fault, crash) = %v, want the one noted span", roots)
	}
}

// Zero rates must not consume randomness, so interleaving silent hooks
// cannot perturb the stream used by active ones.
func TestZeroRatesDrawNothing(t *testing.T) {
	cfg := DefaultConfig(7) // all rates zero
	in := NewInjector(cfg, nil)
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
	a := NewInjector(Scaled(7, 0.5), nil)
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
	a := NewInjector(Scaled(42, 0.3), nil)
	b := NewInjector(Scaled(42, 0.3), nil)
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

// Exactly the fates the receiver never sees are lost, and so retransmitted.
func TestFateLost(t *testing.T) {
	for f, lost := range map[Fate]bool{FateDeliver: false, FateDrop: true, FateCorrupt: true, FateDelay: false} {
		if f.Lost() != lost {
			t.Fatalf("%v.Lost() = %v, want %v", f, f.Lost(), lost)
		}
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
