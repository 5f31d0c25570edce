package verbs

import (
	"testing"
	"unsafe"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The zero-alloc contract of the verbs hot path: once the flight pools,
// packet pool, inbox buffers, and event arena are warm, posting and
// completing RDMA writes, reads, and control sends allocates nothing — with
// no fault plan, with one that injects nothing, and with one that drops 5 %
// of the messages, whose retransmissions ride the same flight records.

// poolPlans are the fault plans every budget below must hold under.
var poolPlans = []struct {
	name string
	plan func() *fault.Config
}{
	{"no plan", func() *fault.Config { return nil }},
	{"zero rate", func() *fault.Config { return fault.DefaultConfig(1) }},
	{"5% drops", func() *fault.Config {
		c := fault.DefaultConfig(1)
		c.DropRate = 0.05
		return c
	}},
}

type poolRig struct {
	k        *sim.Kernel
	reg      *Registry
	inj      *fault.Injector
	a, b     *Ctx
	mrA, mrB *MR
}

func newPoolRig(t *testing.T, backed bool, plan *fault.Config) *poolRig {
	t.Helper()
	k := sim.NewKernel()
	f := fabric.New(k, fabric.DefaultConfig())
	reg := NewRegistry(f, DefaultCosts())
	spA, spB := mem.NewSpace(), mem.NewSpace()
	const size = 4096
	addrA := spA.Alloc(size, backed).Addr()
	addrB := spB.Alloc(size, backed).Addr()
	a := reg.NewCtx("a", spA, f.NewEndpoint("n0.host", 0, device.Baseline().HostPort))
	b := reg.NewCtx("b", spB, f.NewEndpoint("n1.host", 1, device.Baseline().HostPort))
	rig := &poolRig{k: k, reg: reg, a: a, b: b}
	if plan != nil {
		rig.inj = fault.NewInjector(plan, nil)
		f.SetInjector(rig.inj)
		reg.SetInjector(rig.inj)
	}
	k.Spawn("setup", func(p *sim.Proc) {
		rig.mrA = a.RegisterMR(p, addrA, size)
		rig.mrB = b.RegisterMR(p, addrB, size)
	})
	k.Run()
	return rig
}

// receive drains c's inbox into each from an event handler that fires now,
// as a spawned process would start, and then at every arrival, parked on
// c's InboxCond in between. The handler is a func value, so parking it
// again allocates nothing.
func receive(k *sim.Kernel, c *Ctx, each func(pkt *Packet, at sim.Time)) {
	var drain sim.Func
	drain = func(at sim.Time) {
		for _, pkt := range c.PollInbox() {
			each(pkt, at)
		}
		c.InboxCond.Park(k, drain)
	}
	k.AtAction(0, drain)
}

// steadyAllocs warms rig for 200 µs, measures the objects allocated per
// 10 µs op period, then runs 50 µs more and reports whether *done moved.
func (rig *poolRig) steadyAllocs(done *int) (allocs float64, progressed bool) {
	rig.k.RunUntil(rig.k.Now() + 200*sim.Microsecond)
	allocs = testing.AllocsPerRun(100, func() {
		rig.k.RunUntil(rig.k.Now() + 10*sim.Microsecond)
	})
	before := *done
	rig.k.RunUntil(rig.k.Now() + 50*sim.Microsecond)
	rig.k.Shutdown()
	return allocs, *done != before
}

func TestPostWriteSteadyStateAllocFree(t *testing.T) {
	for _, pc := range poolPlans {
		for _, backed := range []bool{false, true} {
			rig := newPoolRig(t, backed, pc.plan())
			done := 0
			onRemote := sim.Func(func(sim.Time) { done++ })
			rig.k.Spawn("writer", func(p *sim.Proc) {
				for {
					op := WriteOp{
						LocalKey: rig.mrA.LKey(), LocalAddr: rig.mrA.Addr(),
						RemoteKey: rig.mrB.RKey(), RemoteAddr: rig.mrB.Addr(),
						Size: 1024, OnRemoteComplete: onRemote,
					}
					if err := rig.a.PostWrite(p, op); err != nil {
						panic(err)
					}
					p.Sleep(10 * sim.Microsecond)
				}
			})
			allocs, progressed := rig.steadyAllocs(&done)
			if !progressed {
				t.Fatalf("%s, backed=%v: writes stopped completing", pc.name, backed)
			}
			if allocs > 0 {
				t.Errorf("%s, backed=%v: PostWrite allocated %.2f objects per op in steady state, want 0", pc.name, backed, allocs)
			}
		}
	}
}

func TestPostReadSteadyStateAllocFree(t *testing.T) {
	for _, pc := range poolPlans {
		for _, backed := range []bool{false, true} {
			rig := newPoolRig(t, backed, pc.plan())
			done := 0
			onComplete := sim.Func(func(sim.Time) { done++ })
			rig.k.Spawn("reader", func(p *sim.Proc) {
				for {
					err := rig.a.PostRead(p, ReadOp{
						LocalKey: rig.mrA.LKey(), LocalAddr: rig.mrA.Addr(),
						RemoteKey: rig.mrB.RKey(), RemoteAddr: rig.mrB.Addr(),
						Size: 1024, OnComplete: onComplete,
					})
					if err != nil {
						panic(err)
					}
					p.Sleep(10 * sim.Microsecond)
				}
			})
			allocs, progressed := rig.steadyAllocs(&done)
			if !progressed {
				t.Fatalf("%s, backed=%v: reads stopped completing", pc.name, backed)
			}
			if allocs > 0 {
				t.Errorf("%s, backed=%v: PostRead allocated %.2f objects per op in steady state, want 0", pc.name, backed, allocs)
			}
		}
	}
}

// A pooled control packet round trip — GetPacket, PostSend, receiver
// PollInbox + PutPacket — must be allocation-free once warm, including the
// double-buffered inbox drain.
func TestPostSendPooledRoundTripAllocFree(t *testing.T) {
	for _, pc := range poolPlans {
		rig := newPoolRig(t, false, pc.plan())
		received := 0
		receive(rig.k, rig.b, func(pkt *Packet, _ sim.Time) {
			received++
			rig.reg.PutPacket(pkt)
		})
		rig.k.Spawn("sender", func(p *sim.Proc) {
			for {
				pkt := rig.reg.GetPacket()
				pkt.Kind, pkt.Size = "ctrl", 64
				rig.a.PostSend(p, rig.b, pkt)
				p.Sleep(10 * sim.Microsecond)
			}
		})
		allocs, progressed := rig.steadyAllocs(&received)
		if !progressed {
			t.Fatalf("%s: control packets stopped arriving", pc.name)
		}
		if allocs > 0 {
			t.Errorf("%s: pooled PostSend round trip allocated %.2f objects per op in steady state, want 0", pc.name, allocs)
		}
	}
}

// The lists hold one flight per op in flight and grow by slabs of them, so
// a flight's size is what a slab costs per op: the retry state and the
// handlers must not push a record past these bounds.
func TestFlightRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"write", unsafe.Sizeof(writeFlight{}), 96},
		{"read", unsafe.Sizeof(readFlight{}), 112},
		{"send", unsafe.Sizeof(sendFlight{}), 24},
	} {
		if c.size > c.max {
			t.Errorf("%s flight is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}

// PutPacket must fully scrub a packet before reuse: a stale payload or span
// leaking into the next sender would corrupt an unrelated protocol.
func TestPutPacketScrubs(t *testing.T) {
	rig := newPoolRig(t, false, nil)
	pkt := rig.reg.GetPacket()
	pkt.Kind, pkt.Size, pkt.Payload, pkt.Data = "x", 9, "payload", []byte{1}
	rig.reg.PutPacket(pkt)
	got := rig.reg.GetPacket()
	if got != pkt {
		t.Fatal("pool did not recycle the packet")
	}
	if got.Kind != "" || got.Size != 0 || got.Payload != nil || got.Data != nil || got.From != nil || got.Span != 0 {
		t.Fatalf("recycled packet not scrubbed: %+v", *got)
	}
	rig.k.Shutdown()
}
