package gvmi

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

type rig struct {
	k       *sim.Kernel
	f       *fabric.Fabric
	r       *verbs.Registry
	m       *Manager
	hostSp  []*mem.Space
	hostCtx []*verbs.Ctx
	dpuSp   []*mem.Space
	dpuCtx  []*verbs.Ctx
}

// newRig builds n nodes, each with one host process and one DPU proxy.
func newRig(n int) *rig {
	k := sim.NewKernel()
	f := fabric.New(k, fabric.DefaultConfig())
	r := verbs.NewRegistry(f, verbs.DefaultCosts())
	m := NewManager(r, DefaultCosts())
	rg := &rig{k: k, f: f, r: r, m: m}
	for i := 0; i < n; i++ {
		hs := mem.NewSpace("host")
		hep := f.NewEndpoint("host", i, device.Baseline().HostPort)
		rg.hostSp = append(rg.hostSp, hs)
		rg.hostCtx = append(rg.hostCtx, r.NewCtx("host", hs, hep))
		ds := mem.NewSpace("dpu")
		dep := f.NewEndpoint("dpu", i, device.Baseline().DPUPort)
		rg.dpuSp = append(rg.dpuSp, ds)
		rg.dpuCtx = append(rg.dpuCtx, r.NewCtx("dpu", ds, dep))
	}
	return rg
}

func TestGenerateIDUnique(t *testing.T) {
	rg := newRig(2)
	a := rg.m.GenerateID(rg.dpuCtx[0])
	b := rg.m.GenerateID(rg.dpuCtx[1])
	if a == b {
		t.Fatal("GVMI-IDs not unique")
	}
}

func TestHostRegisterUnknownID(t *testing.T) {
	rg := newRig(1)
	rg.k.Spawn("h", func(p *sim.Proc) {
		buf := rg.hostSp[0].Alloc(64, true)
		_, err := rg.m.RegisterHost(p, rg.hostCtx[0], buf.Addr(), 64, ID(77))
		if !errors.Is(err, ErrUnknownGVMI) {
			t.Errorf("err = %v, want ErrUnknownGVMI", err)
		}
	})
	rg.k.Run()
}

func TestCrossRegisterValidation(t *testing.T) {
	rg := newRig(2)
	rg.k.Spawn("p", func(p *sim.Proc) {
		id0 := rg.m.GenerateID(rg.dpuCtx[0])
		id1 := rg.m.GenerateID(rg.dpuCtx[1])
		buf := rg.hostSp[0].Alloc(8192, true)
		info, err := rg.m.RegisterHost(p, rg.hostCtx[0], buf.Addr(), 8192, id0)
		if err != nil {
			t.Fatalf("RegisterHost: %v", err)
		}

		// Wrong DPU ctx (owns a different GVMI-ID).
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[1], info); !errors.Is(err, ErrWrongOwner) {
			t.Errorf("wrong owner: err = %v", err)
		}
		// Tampered size.
		bad := info
		bad.Size = 4096
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], bad); !errors.Is(err, ErrMKeyMismatch) {
			t.Errorf("tampered size: err = %v", err)
		}
		// Unknown mkey.
		bad = info
		bad.MKey = 0xDEAD
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], bad); !errors.Is(err, ErrUnknownMKey) {
			t.Errorf("unknown mkey: err = %v", err)
		}
		// Unknown gvmi id in info.
		bad = info
		bad.Gvmi = 999
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], bad); !errors.Is(err, ErrUnknownGVMI) {
			t.Errorf("unknown gvmi: err = %v", err)
		}
		// Correct parameters succeed.
		mr, err := rg.m.CrossRegister(p, rg.dpuCtx[0], info)
		if err != nil || mr == nil {
			t.Fatalf("valid cross-register failed: %v", err)
		}
		_ = id1
	})
	rg.k.Run()
}

func TestRegistrationCostsMatchModel(t *testing.T) {
	rg := newRig(1)
	const size = 64 << 10
	var hostCost, crossCost sim.Time
	rg.k.Spawn("p", func(p *sim.Proc) {
		id := rg.m.GenerateID(rg.dpuCtx[0])
		buf := rg.hostSp[0].Alloc(size, false)
		t0 := p.Now()
		info, _ := rg.m.RegisterHost(p, rg.hostCtx[0], buf.Addr(), size, id)
		hostCost = p.Now() - t0
		t0 = p.Now()
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], info); err != nil {
			t.Errorf("CrossRegister: %v", err)
		}
		crossCost = p.Now() - t0
	})
	rg.k.Run()
	c := rg.m.Costs()
	if hostCost != c.HostRegCost(size) {
		t.Fatalf("host reg cost %v, want %v", hostCost, c.HostRegCost(size))
	}
	if crossCost != c.CrossRegCost(size) {
		t.Fatalf("cross reg cost %v, want %v", crossCost, c.CrossRegCost(size))
	}
	if crossCost <= hostCost {
		t.Fatal("cross-registration should cost more than host registration (Fig 5)")
	}
}

// The headline mechanism: a DPU proxy posts an RDMA write whose lkey is a
// cross-registered mkey2, moving bytes directly from the local *host*
// process's memory into a remote host's memory — no staging through DPU
// DRAM.
func TestGVMIWriteOnBehalfOfHost(t *testing.T) {
	rg := newRig(2)
	src := rg.hostSp[0].Alloc(512, true)
	dst := rg.hostSp[1].Alloc(512, true)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i * 7)
	}
	done := false
	rg.k.Spawn("proxy0", func(p *sim.Proc) {
		id := rg.m.GenerateID(rg.dpuCtx[0])
		// Host registers and ships MKeyInfo (tested elsewhere; inline here).
		info, err := rg.m.RegisterHost(p, rg.hostCtx[0], src.Addr(), 512, id)
		if err != nil {
			t.Errorf("RegisterHost: %v", err)
			return
		}
		dmr := rg.hostCtx[1].RegisterMR(p, dst.Addr(), 512)
		mkey2, err := rg.m.CrossRegister(p, rg.dpuCtx[0], info)
		if err != nil {
			t.Errorf("CrossRegister: %v", err)
			return
		}
		err = rg.dpuCtx[0].PostWrite(p, verbs.WriteOp{
			LocalKey: mkey2.LKey(), LocalAddr: src.Addr(),
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 512,
			OnRemoteComplete: sim.Func(func(sim.Time) { done = true }),
		})
		if err != nil {
			t.Errorf("PostWrite: %v", err)
		}
	})
	rg.k.Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("GVMI transfer corrupted payload")
	}
}

func TestInvalidateHost(t *testing.T) {
	rg := newRig(1)
	rg.k.Spawn("p", func(p *sim.Proc) {
		id := rg.m.GenerateID(rg.dpuCtx[0])
		buf := rg.hostSp[0].Alloc(64, false)
		info, _ := rg.m.RegisterHost(p, rg.hostCtx[0], buf.Addr(), 64, id)
		rg.m.InvalidateHost(info.MKey)
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], info); !errors.Is(err, ErrUnknownMKey) {
			t.Errorf("invalidated mkey still accepted: %v", err)
		}
		// The table is dense and never reuses a slot: the next registration
		// gets a fresh mkey, and keys outside the table — or invalidated
		// twice — are simply unknown.
		next, _ := rg.m.RegisterHost(p, rg.hostCtx[0], buf.Addr(), 64, id)
		if next.MKey <= info.MKey {
			t.Errorf("mkey %d after invalidating %d: want a fresh, larger key", next.MKey, info.MKey)
		}
		if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], next); err != nil {
			t.Errorf("registration after an invalidation: %v", err)
		}
		for _, mk := range []verbs.Key{0, info.MKey - 1, info.MKey, next.MKey + 1, ^verbs.Key(0)} {
			rg.m.InvalidateHost(mk)
			bad := next
			bad.MKey = mk
			if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], bad); !errors.Is(err, ErrUnknownMKey) {
				t.Errorf("mkey %d: err = %v, want ErrUnknownMKey", mk, err)
			}
		}
	})
	rg.k.Run()
}

func TestStatsAccumulate(t *testing.T) {
	rg := newRig(1)
	rg.k.Spawn("p", func(p *sim.Proc) {
		id := rg.m.GenerateID(rg.dpuCtx[0])
		for i := 0; i < 3; i++ {
			buf := rg.hostSp[0].Alloc(4096, false)
			info, _ := rg.m.RegisterHost(p, rg.hostCtx[0], buf.Addr(), 4096, id)
			if _, err := rg.m.CrossRegister(p, rg.dpuCtx[0], info); err != nil {
				t.Errorf("CrossRegister: %v", err)
			}
		}
	})
	rg.k.Run()
	if rg.m.HostRegs != 3 || rg.m.CrossRegs != 3 {
		t.Fatalf("stats: %d host / %d cross, want 3/3", rg.m.HostRegs, rg.m.CrossRegs)
	}
	if rg.m.HostRegTime <= 0 || rg.m.CrossRegTime <= rg.m.HostRegTime {
		t.Fatalf("reg time stats inconsistent: %v / %v", rg.m.HostRegTime, rg.m.CrossRegTime)
	}
}
