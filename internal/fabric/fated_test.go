package fabric

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fatedFabric builds a fabric with an attached injector and metrics registry.
func fatedFabric(cfg *fault.Config) (*sim.Kernel, *Fabric, *Endpoint, *Endpoint, *metrics.Registry) {
	k := sim.NewKernel()
	f := New(k, DefaultConfig())
	met := metrics.NewRegistry()
	f.SetMetrics(met)
	f.SetInjector(fault.NewInjector(cfg, nil))
	src := f.NewEndpoint("n0.host", 0, testHostPort)
	dst := f.NewEndpoint("n1.host", 1, testHostPort)
	return k, f, src, dst, met
}

// A dropped message is reported through its fate, which says it was lost,
// and its delivery never runs.
func TestFatedDropReportsNotDelivered(t *testing.T) {
	cfg := fault.DefaultConfig(1)
	cfg.DropRate = 1
	k, f, src, dst, met := fatedFabric(cfg)
	act := &recordAction{}
	txDone, arrive, fate := f.TransferAction(src, dst, 4096, act)
	if fate != fault.FateDrop || !fate.Lost() {
		t.Fatalf("fate = %v, want a lost drop", fate)
	}
	if arrive != 0 {
		t.Fatalf("arrive = %v for a drop (documented invalid = 0)", arrive)
	}
	if txDone <= 0 {
		t.Fatalf("txDone = %v, want sender occupancy", txDone)
	}
	k.Run()
	if act.n != 0 {
		t.Fatal("delivery ran for a dropped message")
	}
	if src.MsgsSent != 1 || dst.MsgsRecv != 0 || dst.MsgsDiscarded != 0 {
		t.Fatalf("stats sent=%d recv=%d disc=%d, want 1/0/0",
			src.MsgsSent, dst.MsgsRecv, dst.MsgsDiscarded)
	}
	snap := met.Snapshot()
	if v := snap.CounterValue("fabric", "n0.host", "msgs_dropped"); v != 1 {
		t.Fatalf("msgs_dropped = %d, want 1", v)
	}
}

// A corrupted message occupies the receive port but
// must count as discard, not goodput.
func TestCorruptCountsDiscardedNotGoodput(t *testing.T) {
	cfg := fault.DefaultConfig(1)
	cfg.CorruptRate = 1
	k, f, src, dst, met := fatedFabric(cfg)
	act := &recordAction{}
	_, arrive, fate := f.TransferAction(src, dst, 4096, act)
	if fate != fault.FateCorrupt || !fate.Lost() {
		t.Fatalf("fate = %v, want a lost corruption", fate)
	}
	if arrive == 0 {
		t.Fatal("corrupt arrive = 0; it should be the end of port occupancy")
	}
	if dst.rxBusyUntil != arrive {
		t.Fatalf("rx port busy until %v, want %v (corrupt occupies the port)", dst.rxBusyUntil, arrive)
	}
	k.Run()
	if act.n != 0 {
		t.Fatal("delivery ran for a corrupted message")
	}
	if dst.MsgsRecv != 0 || dst.BytesRecv != 0 {
		t.Fatalf("goodput stats recv=%d/%d bytes, want 0 (message was discarded)",
			dst.MsgsRecv, dst.BytesRecv)
	}
	if dst.MsgsDiscarded != 1 || dst.BytesDiscarded != 4096 {
		t.Fatalf("discard stats = %d msgs/%d bytes, want 1/4096",
			dst.MsgsDiscarded, dst.BytesDiscarded)
	}
	snap := met.Snapshot()
	if v := snap.CounterValue("fabric", "n1.host", "msgs_discarded"); v != 1 {
		t.Fatalf("msgs_discarded metric = %d, want 1", v)
	}
	if v := snap.CounterValue("fabric", "n1.host", "bytes_discarded"); v != 4096 {
		t.Fatalf("bytes_discarded metric = %d, want 4096", v)
	}
	if v := snap.CounterValue("fabric", "n1.host", "msgs_rx"); v != 0 {
		t.Fatalf("msgs_rx metric = %d, want 0", v)
	}
}

// A FateDelay spike extends delivery, not port
// occupancy, so a later message on the same port may overtake the delayed
// one. That inversion is intended — the spike models a switch-buffering
// excursion beyond the receiver, after the port already serialized the
// message (DESIGN.md §6). This test pins the behaviour: with a seed whose
// first draw delays and second delivers, the second message's delivery runs
// before the first's.
func TestDelaySpikeAllowsOvertakingPinned(t *testing.T) {
	// Find a seed where draw1 < 0.5 (delay) and draw2 >= 0.5 (deliver).
	seed := int64(-1)
	for s := int64(0); s < 1000; s++ {
		rng := rand.New(rand.NewSource(s))
		if rng.Float64() < 0.5 && rng.Float64() >= 0.5 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no suitable seed in 1000 tries")
	}
	cfg := fault.DefaultConfig(seed)
	cfg.DelayRate = 0.5
	cfg.DelaySpike = 50 * sim.Microsecond
	k, f, src, dst, _ := fatedFabric(cfg)

	first, second := &recordAction{}, &recordAction{}
	_, a1, f1 := f.TransferAction(src, dst, 1024, first)
	_, a2, f2 := f.TransferAction(src, dst, 1024, second)
	if f1 != fault.FateDelay || f2 != fault.FateDeliver {
		t.Fatalf("fates = %v/%v, want delay/deliver (seed scan broken)", f1, f2)
	}
	if f1.Lost() || f2.Lost() {
		t.Fatal("both messages should be delivered")
	}
	if a2 >= a1 {
		t.Fatalf("no inversion: second delivers at %v, delayed first at %v", a2, a1)
	}
	k.Run()
	if second.last >= first.last {
		t.Fatalf("delivery order not inverted: first=%v second=%v", first.last, second.last)
	}
	// The port itself stays FIFO: the delayed first message freed the port
	// at its nominal time, so the second's occupancy (and rxBusyUntil) is
	// its own undelayed arrival.
	if dst.rxBusyUntil != a2 {
		t.Fatalf("rxBusyUntil = %v, want second arrival %v (spike must not hold the port)", dst.rxBusyUntil, a2)
	}
}

// Fabric metric counters must mirror the endpoint stats for plain traffic.
func TestFabricMetricsMirrorStats(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, DefaultConfig())
	met := metrics.NewRegistry()
	f.SetMetrics(met)
	src := f.NewEndpoint("a", 0, testHostPort)
	dst := f.NewEndpoint("b", 1, testHostPort)
	f.TransferAction(src, dst, 1000, nil)
	f.TransferAction(src, dst, 24, nil)
	k.Run()
	snap := met.Snapshot()
	if v := snap.CounterValue("fabric", "a", "msgs_tx"); v != src.MsgsSent {
		t.Fatalf("msgs_tx = %d, stats say %d", v, src.MsgsSent)
	}
	if v := snap.CounterValue("fabric", "a", "bytes_tx"); v != src.BytesSent {
		t.Fatalf("bytes_tx = %d, stats say %d", v, src.BytesSent)
	}
	if v := snap.CounterValue("fabric", "b", "msgs_rx"); v != dst.MsgsRecv {
		t.Fatalf("msgs_rx = %d, stats say %d", v, dst.MsgsRecv)
	}
	if v := snap.CounterValue("fabric", "b", "bytes_rx"); v != 1024 {
		t.Fatalf("bytes_rx = %d, want 1024", v)
	}
}
