package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Test-local port parameter sets: the bf2/bf3 values that used to be
// package constants here and now live in internal/device (which this
// package cannot import — device depends on fabric).
var (
	testHostPort    = Params{Overhead: 250 * sim.Nanosecond, GBps: 12.5}
	testDPUPort     = Params{Overhead: 600 * sim.Nanosecond, GBps: 12.5}
	testHostPortNDR = Params{Overhead: 220 * sim.Nanosecond, GBps: 25}
	testDPUPortBF3  = Params{Overhead: 350 * sim.Nanosecond, GBps: 25}
)

func testFabric() (*sim.Kernel, *Fabric, *Endpoint, *Endpoint, *Endpoint) {
	k := sim.NewKernel()
	f := New(k, DefaultConfig())
	h0 := f.NewEndpoint("n0.host", 0, testHostPort)
	h1 := f.NewEndpoint("n1.host", 1, testHostPort)
	d0 := f.NewEndpoint("n0.dpu", 0, testDPUPort)
	return k, f, h0, h1, d0
}

func TestTransferLatencyModel(t *testing.T) {
	k, f, h0, h1, _ := testFabric()
	size := 1024
	act := &recordAction{}
	txDone, arrive, _ := f.TransferAction(h0, h1, size, act)
	wantSer := sim.Time(float64(size) / testHostPort.GBps)
	if want := testHostPort.Overhead + wantSer; txDone != want {
		t.Fatalf("txDone = %v, want %v", txDone, want)
	}
	if want := testHostPort.Overhead + f.Config().WireLatency + wantSer; arrive != want {
		t.Fatalf("arrive = %v, want %v", arrive, want)
	}
	k.Run()
	if act.n != 1 || act.last != arrive {
		t.Fatalf("delivery fired %d times, last at %v, want once at %v", act.n, act.last, arrive)
	}
}

func TestLocalLatencyUsedOnSameNode(t *testing.T) {
	_, f, h0, _, d0 := testFabric()
	if got := f.Latency(h0, d0); got != f.Config().LocalLatency {
		t.Fatalf("same-node latency = %v, want %v", got, f.Config().LocalLatency)
	}
}

func TestSenderSerialization(t *testing.T) {
	_, f, h0, h1, _ := testFabric()
	// Two back-to-back messages: the second's injection starts after the
	// first finishes.
	tx1, _, _ := f.TransferAction(h0, h1, 4096, nil)
	tx2, _, _ := f.TransferAction(h0, h1, 4096, nil)
	per := testHostPort.Overhead + sim.Time(4096/testHostPort.GBps)
	if tx1 != per || tx2 != 2*per {
		t.Fatalf("tx1=%v tx2=%v, want %v and %v", tx1, tx2, per, 2*per)
	}
}

func TestReceiverSerializationIncast(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, DefaultConfig())
	dst := f.NewEndpoint("dst", 9, testHostPort)
	const n = 4
	const size = 1 << 20
	var last sim.Time
	for i := 0; i < n; i++ {
		src := f.NewEndpoint("src", i, testHostPort)
		_, a, _ := f.TransferAction(src, dst, size, nil)
		if a > last {
			last = a
		}
	}
	k.Run()
	// n concurrent senders into one port must take at least n serialized
	// payload times at the receiver.
	minSerialized := sim.Time(float64(n*size) / testHostPort.GBps)
	if last < minSerialized {
		t.Fatalf("incast finished at %v, faster than receiver line rate %v", last, minSerialized)
	}
}

// The paper's Figure 2/3 premise: DPU-driven injection has similar latency
// but roughly half the small-message bandwidth of host-driven injection,
// converging at large messages.
func TestHostVsDPUInjectionShape(t *testing.T) {
	cfg := DefaultConfig()

	latency := func(par Params, size int) sim.Time {
		return par.Overhead + cfg.WireLatency + sim.Time(float64(size)/par.GBps)
	}
	msgRateBW := func(par Params, size int) float64 {
		per := par.Overhead + par.serialize(size)
		return float64(size) / float64(per)
	}

	// Small-message latency within 30%.
	lh, ld := latency(testHostPort, 8), latency(testDPUPort, 8)
	if ratio := float64(ld) / float64(lh); ratio > 1.35 {
		t.Fatalf("small-message DPU/host latency ratio %.2f, want close to 1", ratio)
	}
	// Small-message bandwidth of DPU path roughly half.
	bh, bd := msgRateBW(testHostPort, 4096), msgRateBW(testDPUPort, 4096)
	if r := bd / bh; r < 0.35 || r > 0.75 {
		t.Fatalf("small-message DPU/host bandwidth ratio %.2f, want ~0.5", r)
	}
	// Large-message bandwidth converges.
	bh, bd = msgRateBW(testHostPort, 4<<20), msgRateBW(testDPUPort, 4<<20)
	if r := bd / bh; r < 0.95 {
		t.Fatalf("large-message DPU/host bandwidth ratio %.2f, want ~1", r)
	}
}

func TestTransferStats(t *testing.T) {
	k, f, h0, h1, _ := testFabric()
	f.TransferAction(h0, h1, 100, nil)
	f.TransferAction(h0, h1, 200, nil)
	k.Run()
	if h0.MsgsSent != 2 || h0.BytesSent != 300 {
		t.Fatalf("sender stats = %d msgs / %d bytes, want 2/300", h0.MsgsSent, h0.BytesSent)
	}
	if h1.MsgsRecv != 2 || h1.BytesRecv != 300 {
		t.Fatalf("receiver stats = %d msgs / %d bytes, want 2/300", h1.MsgsRecv, h1.BytesRecv)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	_, f, h0, h1, _ := testFabric()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.TransferAction(h0, h1, -1, nil)
}

func TestZeroSizeTransferStillHasOverheadAndLatency(t *testing.T) {
	_, f, h0, h1, _ := testFabric()
	tx, ar, _ := f.TransferAction(h0, h1, 0, nil)
	if tx != testHostPort.Overhead {
		t.Fatalf("txDone = %v, want overhead %v", tx, testHostPort.Overhead)
	}
	if ar != testHostPort.Overhead+f.Config().WireLatency {
		t.Fatalf("arrive = %v", ar)
	}
}

// Property: arrival time is monotone nondecreasing in message size, and
// never earlier than overhead+latency.
func TestPropertyArrivalMonotone(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel()
		fb := New(k, DefaultConfig())
		src := fb.NewEndpoint("s", 0, testHostPort)
		dst := fb.NewEndpoint("d", 1, testHostPort)
		floor := testHostPort.Overhead + fb.Config().WireLatency
		var prevArrive sim.Time
		for _, sz := range sizes {
			_, a, _ := fb.TransferAction(src, dst, int(sz), nil)
			if a < floor || a < prevArrive {
				return false
			}
			prevArrive = a
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackFasterThanWire(t *testing.T) {
	k := sim.NewKernel()
	f := New(k, DefaultConfig())
	a := f.NewEndpoint("a", 0, testHostPort)
	b := f.NewEndpoint("b", 0, testHostPort) // same node
	c := f.NewEndpoint("c", 1, testHostPort) // remote
	const size = 1 << 20
	_, local, _ := f.TransferAction(a, b, size, nil)
	f2 := New(sim.NewKernel(), DefaultConfig())
	a2 := f2.NewEndpoint("a", 0, testHostPort)
	c2 := f2.NewEndpoint("c", 1, testHostPort)
	_, remote, _ := f2.TransferAction(a2, c2, size, nil)
	_ = c
	if local >= remote {
		t.Fatalf("same-node transfer (%v) should beat the wire (%v): PCIe loopback", local, remote)
	}
}

func TestNDRConfigFaster(t *testing.T) {
	ndr := NDRConfig()
	hdr := DefaultConfig()
	if ndr.WireLatency >= hdr.WireLatency || ndr.LoopbackGBps <= hdr.LoopbackGBps {
		t.Fatal("NDR config must improve on HDR")
	}
	if testDPUPortBF3.Overhead >= testDPUPort.Overhead {
		t.Fatal("BF3 posting must be faster than BF2")
	}
	if testHostPortNDR.GBps <= testHostPort.GBps {
		t.Fatal("NDR line rate must exceed HDR100")
	}
}
