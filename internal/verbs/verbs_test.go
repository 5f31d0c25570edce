package verbs

import (
	"bytes"
	"testing"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
)

type rig struct {
	k   *sim.Kernel
	f   *fabric.Fabric
	r   *Registry
	ctx []*Ctx
	sp  []*mem.Space
}

func newRig(n int) *rig {
	k := sim.NewKernel()
	f := fabric.New(k, fabric.DefaultConfig())
	r := NewRegistry(f, DefaultCosts())
	rg := &rig{k: k, f: f, r: r}
	for i := 0; i < n; i++ {
		sp := mem.NewSpace()
		ep := f.NewEndpoint("host", i, device.Baseline().HostPort)
		rg.sp = append(rg.sp, sp)
		rg.ctx = append(rg.ctx, r.NewCtx("ctx", sp, ep))
	}
	return rg
}

func TestRegCostModel(t *testing.T) {
	c := DefaultCosts()
	if c.RegCost(1) != c.RegBase+c.RegPerPage {
		t.Fatalf("1-byte reg cost = %v", c.RegCost(1))
	}
	if c.RegCost(2*c.PageSize) != c.RegBase+2*c.RegPerPage {
		t.Fatalf("2-page reg cost = %v", c.RegCost(2*c.PageSize))
	}
	if c.RegCost(c.PageSize+1) != c.RegBase+2*c.RegPerPage {
		t.Fatal("partial page not rounded up")
	}
}

func TestRegisterMRChargesTime(t *testing.T) {
	rg := newRig(1)
	var elapsed sim.Time
	rg.k.Spawn("p0", func(p *sim.Proc) {
		buf := rg.sp[0].Alloc(8192, true)
		mr := rg.ctx[0].RegisterMR(p, buf.Addr(), buf.Size())
		elapsed = p.Now()
		if mr.LKey() == mr.RKey() {
			t.Error("lkey == rkey")
		}
	})
	rg.k.Run()
	if want := rg.r.Costs().RegCost(8192); elapsed != want {
		t.Fatalf("registration took %v, want %v", elapsed, want)
	}
	if rg.r.Registrations != 1 {
		t.Fatalf("Registrations = %d", rg.r.Registrations)
	}
}

func TestRDMAWriteMovesBytes(t *testing.T) {
	rg := newRig(2)
	src := rg.sp[0].Alloc(256, true)
	dst := rg.sp[1].Alloc(256, true)
	copy(src.Bytes(), bytes.Repeat([]byte{0xC3}, 256))

	var remoteAt sim.Time
	rg.k.Spawn("sender", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 256)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 256) // test shortcut: register both here
		err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr(),
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(),
			Size:             256,
			OnRemoteComplete: sim.Func(func(at sim.Time) { remoteAt = at }),
		})
		if err != nil {
			t.Errorf("PostWrite: %v", err)
		}
	})
	rg.k.Run()
	if remoteAt == 0 {
		t.Fatal("remote completion never fired")
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("payload not copied")
	}
}

func TestRDMAWriteSubRange(t *testing.T) {
	rg := newRig(2)
	src := rg.sp[0].Alloc(1024, true)
	dst := rg.sp[1].Alloc(1024, true)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	rg.k.Spawn("sender", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 1024)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 1024)
		if err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr() + 100,
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr() + 200,
			Size: 50,
		}); err != nil {
			t.Errorf("PostWrite: %v", err)
		}
	})
	rg.k.Run()
	if !bytes.Equal(dst.Bytes()[200:250], src.Bytes()[100:150]) {
		t.Fatal("sub-range copy wrong")
	}
	for _, b := range dst.Bytes()[:200] {
		if b != 0 {
			t.Fatal("bytes written outside target range")
		}
	}
}

func TestRDMAWriteValidatesKeys(t *testing.T) {
	rg := newRig(2)
	src := rg.sp[0].Alloc(64, true)
	rg.k.Spawn("sender", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 64)
		err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr(),
			RemoteKey: Key(9999), RemoteAddr: 0x1000, Size: 64,
		})
		if err == nil {
			t.Error("unknown rkey accepted")
		}
		err = rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr() + 32,
			RemoteKey: smr.RKey(), RemoteAddr: src.Addr(), Size: 64,
		})
		if err == nil {
			t.Error("out-of-range local access accepted")
		}
	})
	rg.k.Run()
}

func TestDeregisterInvalidatesKey(t *testing.T) {
	rg := newRig(2)
	src := rg.sp[0].Alloc(64, true)
	dst := rg.sp[1].Alloc(64, true)
	rg.k.Spawn("p", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 64)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 64)
		dmr.Deregister()
		err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr(),
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 64,
		})
		if err == nil {
			t.Error("write to deregistered rkey accepted")
		}
	})
	rg.k.Run()
}

func TestRDMAReadFetchesBytes(t *testing.T) {
	rg := newRig(2)
	local := rg.sp[0].Alloc(128, true)
	remote := rg.sp[1].Alloc(128, true)
	copy(remote.Bytes(), bytes.Repeat([]byte{0x5A}, 128))
	var done sim.Time
	rg.k.Spawn("reader", func(p *sim.Proc) {
		lmr := rg.ctx[0].RegisterMR(p, local.Addr(), 128)
		rmr := rg.ctx[1].RegisterMR(p, remote.Addr(), 128)
		if err := rg.ctx[0].PostRead(p, ReadOp{
			LocalKey: lmr.LKey(), LocalAddr: local.Addr(),
			RemoteKey: rmr.RKey(), RemoteAddr: remote.Addr(),
			Size:       128,
			OnComplete: sim.Func(func(at sim.Time) { done = at }),
		}); err != nil {
			t.Errorf("PostRead: %v", err)
		}
	})
	rg.k.Run()
	if done == 0 {
		t.Fatal("read completion never fired")
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatal("read payload wrong")
	}
}

func TestRDMAReadRoundTripSlowerThanWrite(t *testing.T) {
	rg := newRig(2)
	a := rg.sp[0].Alloc(4096, true)
	b := rg.sp[1].Alloc(4096, true)
	var writeDone, readDone sim.Time
	rg.k.Spawn("p", func(p *sim.Proc) {
		amr := rg.ctx[0].RegisterMR(p, a.Addr(), 4096)
		bmr := rg.ctx[1].RegisterMR(p, b.Addr(), 4096)
		start := p.Now()
		doneW := false
		if err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: amr.LKey(), LocalAddr: a.Addr(),
			RemoteKey: bmr.RKey(), RemoteAddr: b.Addr(), Size: 4096,
			OnRemoteComplete: sim.Func(func(at sim.Time) { writeDone = at - start; doneW = true }),
		}); err != nil {
			t.Errorf("write: %v", err)
		}
		for !doneW {
			p.Sleep(100)
		}
		start = p.Now()
		doneR := false
		if err := rg.ctx[0].PostRead(p, ReadOp{
			LocalKey: amr.LKey(), LocalAddr: a.Addr(),
			RemoteKey: bmr.RKey(), RemoteAddr: b.Addr(), Size: 4096,
			OnComplete: sim.Func(func(at sim.Time) { readDone = at - start; doneR = true }),
		}); err != nil {
			t.Errorf("read: %v", err)
		}
		for !doneR {
			p.Sleep(100)
		}
	})
	rg.k.Run()
	if readDone <= writeDone {
		t.Fatalf("read (%v) should be slower than write (%v): extra request flight", readDone, writeDone)
	}
}

func TestControlMessageDelivery(t *testing.T) {
	rg := newRig(2)
	var got *Packet
	rg.k.Spawn("recv", func(p *sim.Proc) {
		rg.ctx[1].AwaitInbox(p)
		pkts := rg.ctx[1].PollInbox()
		if len(pkts) == 1 {
			got = pkts[0]
		}
	})
	rg.k.Spawn("send", func(p *sim.Proc) {
		p.Sleep(50)
		rg.ctx[0].PostSend(p, rg.ctx[1], &Packet{Kind: "RTS", Size: 64, Payload: 42})
	})
	rg.k.Run()
	if len(rg.k.Deadlocked) != 0 {
		t.Fatal("deadlock")
	}
	if got == nil || got.Kind != "RTS" || got.Payload.(int) != 42 || got.From != rg.ctx[0] {
		t.Fatalf("bad packet: %+v", got)
	}
}

func TestSizeOnlyRDMAWriteAdvancesTimeWithoutCopy(t *testing.T) {
	rg := newRig(2)
	src := rg.sp[0].Alloc(1<<20, false)
	dst := rg.sp[1].Alloc(1<<20, false)
	var done sim.Time
	rg.k.Spawn("p", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), src.Size())
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), dst.Size())
		if err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr(),
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 1 << 20,
			OnRemoteComplete: sim.Func(func(at sim.Time) { done = at }),
		}); err != nil {
			t.Errorf("PostWrite: %v", err)
		}
	})
	end := rg.k.Run()
	if done == 0 || end < sim.Time(float64(1<<20)/device.Baseline().HostPort.GBps) {
		t.Fatalf("size-only transfer mistimed: done=%v end=%v", done, end)
	}
}

func TestWriteWithImmediateNotifies(t *testing.T) {
	rg := newRig(2)
	src := rg.sp[0].Alloc(64, true)
	dst := rg.sp[1].Alloc(64, true)
	var got *Packet
	rg.k.Spawn("recv", func(p *sim.Proc) {
		rg.ctx[1].AwaitInbox(p)
		pkts := rg.ctx[1].PollInbox()
		if len(pkts) == 1 {
			got = pkts[0]
		}
	})
	rg.k.Spawn("send", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 64)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 64)
		err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr(),
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 64,
			Notify: &Packet{Kind: "imm", Payload: 99},
		})
		if err != nil {
			t.Errorf("PostWrite: %v", err)
		}
	})
	rg.k.Run()
	if got == nil || got.Kind != "imm" || got.Payload.(int) != 99 {
		t.Fatalf("immediate not delivered: %+v", got)
	}
}

func TestRDMAReadValidatesKeys(t *testing.T) {
	rg := newRig(2)
	local := rg.sp[0].Alloc(64, true)
	rg.k.Spawn("p", func(p *sim.Proc) {
		lmr := rg.ctx[0].RegisterMR(p, local.Addr(), 64)
		if err := rg.ctx[0].PostRead(p, ReadOp{
			LocalKey: lmr.LKey(), LocalAddr: local.Addr(),
			RemoteKey: Key(424242), RemoteAddr: 0x1000, Size: 64,
		}); err == nil {
			t.Error("unknown remote key accepted")
		}
		if err := rg.ctx[0].PostRead(p, ReadOp{
			LocalKey: lmr.LKey(), LocalAddr: local.Addr() + 32,
			RemoteKey: lmr.RKey(), RemoteAddr: local.Addr(), Size: 64,
		}); err == nil {
			t.Error("out-of-range local landing zone accepted")
		}
	})
	rg.k.Run()
}

func TestRegistryStatsAccumulate(t *testing.T) {
	rg := newRig(1)
	rg.k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			buf := rg.sp[0].Alloc(4096, false)
			rg.ctx[0].RegisterMR(p, buf.Addr(), 4096)
		}
	})
	rg.k.Run()
	if rg.r.Registrations != 3 {
		t.Fatalf("Registrations = %d", rg.r.Registrations)
	}
	if rg.r.RegTime != 3*rg.r.Costs().RegCost(4096) {
		t.Fatalf("RegTime = %v", rg.r.RegTime)
	}
}
