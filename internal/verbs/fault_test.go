package verbs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/span"
)

// faultRig is a rig with an injector attached.
func newFaultRig(n int, cfg *fault.Config) (*rig, *fault.Injector) {
	rg := newRig(n)
	in := fault.NewInjector(cfg, nil)
	rg.f.SetInjector(in)
	rg.r.SetInjector(in)
	return rg, in
}

// Under heavy drops the write is retransmitted until it lands; the payload
// still arrives intact and the retry counter records the losses.
func TestWriteRetriesUnderDrops(t *testing.T) {
	cfg := fault.DefaultConfig(3)
	cfg.DropRate = 0.5
	rg, in := newFaultRig(2, cfg)
	src := rg.sp[0].Alloc(4096, true)
	dst := rg.sp[1].Alloc(4096, true)
	copy(src.Bytes(), bytes.Repeat([]byte{0xAB}, 4096))

	var done sim.Time
	rg.k.Spawn("p", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 4096)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 4096)
		for i := 0; i < 20; i++ {
			if err := rg.ctx[0].PostWrite(p, WriteOp{
				LocalKey: smr.LKey(), LocalAddr: src.Addr(),
				RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 4096,
				OnRemoteComplete: sim.Func(func(at sim.Time) { done = at }),
			}); err != nil {
				t.Fatalf("PostWrite: %v", err)
			}
		}
	})
	rg.k.Run()
	if done == 0 {
		t.Fatal("write never completed")
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("payload corrupted")
	}
	if in.Stats.Drops == 0 || in.Stats.Retries == 0 {
		t.Fatalf("no retries recorded under 50%% drops: %+v", in.Stats)
	}
	if in.Stats.Exhausted != 0 {
		t.Fatalf("retry budget exhausted unexpectedly: %+v", in.Stats)
	}
}

// With a 100% drop rate and a tiny retry budget the op must fail terminally
// through OnError, and the payload must never arrive.
func TestWriteRetryExhausted(t *testing.T) {
	cfg := fault.DefaultConfig(1)
	cfg.DropRate = 1.0
	cfg.Retry = fault.RetryConfig{MaxAttempts: 2, Backoff: sim.Microsecond, BackoffMax: sim.Microsecond}
	rg, in := newFaultRig(2, cfg)
	src := rg.sp[0].Alloc(64, true)
	dst := rg.sp[1].Alloc(64, true)
	copy(src.Bytes(), bytes.Repeat([]byte{0xFF}, 64))

	var failedAt sim.Time
	completed := false
	rg.k.Spawn("p", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 64)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 64)
		if err := rg.ctx[0].PostWrite(p, WriteOp{
			LocalKey: smr.LKey(), LocalAddr: src.Addr(),
			RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 64,
			OnRemoteComplete: sim.Func(func(sim.Time) { completed = true }),
			OnError:          sim.Func(func(at sim.Time) { failedAt = at }),
		}); err != nil {
			t.Fatalf("PostWrite: %v", err)
		}
	})
	rg.k.Run()
	if completed {
		t.Fatal("write completed despite 100% drops")
	}
	if failedAt == 0 {
		t.Fatal("OnError never fired")
	}
	if in.Stats.Exhausted != 1 || in.Stats.Retries != 1 {
		t.Fatalf("want 1 retry + 1 exhausted, got %+v", in.Stats)
	}
	for _, b := range dst.Bytes() {
		if b != 0 {
			t.Fatal("dropped write delivered bytes")
		}
	}
}

// Error CQEs (pre-wire faults) are retried like wire losses.
func TestCQErrorRetried(t *testing.T) {
	cfg := fault.DefaultConfig(5)
	cfg.CQErrorRate = 0.5
	rg, in := newFaultRig(2, cfg)
	src := rg.sp[0].Alloc(256, true)
	dst := rg.sp[1].Alloc(256, true)
	copy(src.Bytes(), bytes.Repeat([]byte{0x11}, 256))

	done := 0
	rg.k.Spawn("p", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 256)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 256)
		for i := 0; i < 20; i++ {
			if err := rg.ctx[0].PostWrite(p, WriteOp{
				LocalKey: smr.LKey(), LocalAddr: src.Addr(),
				RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 256,
				OnRemoteComplete: sim.Func(func(sim.Time) { done++ }),
			}); err != nil {
				t.Fatalf("PostWrite: %v", err)
			}
		}
	})
	rg.k.Run()
	if done != 20 {
		t.Fatalf("completed %d/20 writes", done)
	}
	if in.Stats.CQErrors == 0 {
		t.Fatalf("no CQ errors drawn at 50%%: %+v", in.Stats)
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("payload corrupted")
	}
}

// RDMA reads retry the whole round trip on the loss of either leg.
func TestReadRetriesUnderDrops(t *testing.T) {
	cfg := fault.DefaultConfig(9)
	cfg.DropRate = 0.4
	rg, in := newFaultRig(2, cfg)
	local := rg.sp[0].Alloc(512, true)
	remote := rg.sp[1].Alloc(512, true)
	copy(remote.Bytes(), bytes.Repeat([]byte{0x77}, 512))

	done := 0
	rg.k.Spawn("p", func(p *sim.Proc) {
		lmr := rg.ctx[0].RegisterMR(p, local.Addr(), 512)
		rmr := rg.ctx[1].RegisterMR(p, remote.Addr(), 512)
		for i := 0; i < 10; i++ {
			if err := rg.ctx[0].PostRead(p, ReadOp{
				LocalKey: lmr.LKey(), LocalAddr: local.Addr(),
				RemoteKey: rmr.RKey(), RemoteAddr: remote.Addr(), Size: 512,
				OnComplete: sim.Func(func(sim.Time) { done++ }),
			}); err != nil {
				t.Fatalf("PostRead: %v", err)
			}
		}
	})
	rg.k.Run()
	if done != 10 {
		t.Fatalf("completed %d/10 reads", done)
	}
	if in.Stats.Drops == 0 || in.Stats.Retries == 0 {
		t.Fatalf("no read retries at 40%% drops: %+v", in.Stats)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatal("read payload wrong")
	}
}

// Control messages (two-sided sends) are also retried to delivery.
func TestSendRetriesUnderDrops(t *testing.T) {
	cfg := fault.DefaultConfig(11)
	cfg.DropRate = 0.5
	rg, in := newFaultRig(2, cfg)

	var got []*Packet
	rg.k.Spawn("recv", func(p *sim.Proc) {
		for len(got) < 5 {
			rg.ctx[1].AwaitInbox(p)
			got = append(got, rg.ctx[1].PollInbox()...)
		}
	})
	rg.k.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			rg.ctx[0].PostSend(p, rg.ctx[1], &Packet{Kind: "ctrl", Size: 64, Payload: i})
		}
	})
	rg.k.Run()
	if len(rg.k.Deadlocked) != 0 {
		t.Fatal("deadlock: control messages lost for good")
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d/5 messages", len(got))
	}
	seen := map[int]bool{}
	for _, pkt := range got {
		seen[pkt.Payload.(int)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("duplicate or missing payloads: %v", seen)
	}
	if in.Stats.Retries == 0 {
		t.Fatalf("no send retries at 50%% drops: %+v", in.Stats)
	}
}

// Failed registrations are retried; every failed try still pays the cost.
func TestRegFailRetried(t *testing.T) {
	cfg := fault.DefaultConfig(2)
	cfg.RegFailRate = 0.5
	rg, in := newFaultRig(1, cfg)
	var elapsed sim.Time
	rg.k.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			buf := rg.sp[0].Alloc(4096, false)
			rg.ctx[0].RegisterMR(p, buf.Addr(), 4096)
		}
		elapsed = p.Now()
	})
	rg.k.Run()
	if in.Stats.RegFails == 0 {
		t.Fatalf("no registration failures at 50%%: %+v", in.Stats)
	}
	wantRegs := int64(10) + in.Stats.RegFails
	if rg.r.Registrations != wantRegs {
		t.Fatalf("Registrations = %d, want %d (failed tries pay too)", rg.r.Registrations, wantRegs)
	}
	if want := sim.Time(wantRegs) * rg.r.Costs().RegCost(4096); elapsed != want {
		t.Fatalf("elapsed %v, want %v", elapsed, want)
	}
}

// A rate-zero injector must leave timing bit-identical to no injector.
func TestZeroRateInjectorZeroOverhead(t *testing.T) {
	run := func(cfg *fault.Config) sim.Time {
		var rg *rig
		if cfg != nil {
			rg, _ = newFaultRig(2, cfg)
		} else {
			rg = newRig(2)
		}
		src := rg.sp[0].Alloc(8192, true)
		dst := rg.sp[1].Alloc(8192, true)
		var done sim.Time
		rg.k.Spawn("p", func(p *sim.Proc) {
			smr := rg.ctx[0].RegisterMR(p, src.Addr(), 8192)
			dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 8192)
			for i := 0; i < 4; i++ {
				if err := rg.ctx[0].PostWrite(p, WriteOp{
					LocalKey: smr.LKey(), LocalAddr: src.Addr(),
					RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 8192,
					OnRemoteComplete: sim.Func(func(at sim.Time) { done = at }),
				}); err != nil {
					t.Fatalf("PostWrite: %v", err)
				}
			}
		})
		rg.k.Run()
		return done
	}
	bare := run(nil)
	silent := run(fault.DefaultConfig(123)) // all rates zero
	if bare == 0 || bare != silent {
		t.Fatalf("rate-zero injector changed timing: %v vs %v", bare, silent)
	}
}

// retryOutcome posts a burst of writes, reads and sends under a plan harsh
// enough that some exhaust a three-attempt budget — half of the writes and
// reads with an OnError, half without — and returns its record: one line per
// completion, terminal error and arrival with its virtual time, the events
// fired, the fault counters, hashes of both memories and (traced) of the
// span JSONL.
func retryOutcome(t *testing.T, traced bool) []byte {
	cfg := fault.Scaled(5, 0.8)
	cfg.Retry = fault.RetryConfig{MaxAttempts: 3, Backoff: sim.Microsecond, BackoffMax: 4 * sim.Microsecond}
	rg := newRig(2)
	var sc *span.Collector
	if traced {
		sc = span.New(0)
		rg.f.SetSpans(sc)
		rg.r.SetSpans(sc)
	}
	in := fault.NewInjector(cfg, sc)
	rg.f.SetInjector(in)
	rg.r.SetInjector(in)
	const n, size = 8, 512
	a := rg.sp[0].Alloc(2*n*size, true)
	b := rg.sp[1].Alloc(2*n*size, true)
	for i := range a.Bytes() {
		a.Bytes()[i], b.Bytes()[i] = byte(i*7), byte(i*13)
	}
	var log bytes.Buffer
	note := func(what string, i int, at sim.Time) { fmt.Fprintf(&log, "%s %d at %d\n", what, i, at) }
	rg.k.Spawn("recv", func(p *sim.Proc) {
		for {
			rg.ctx[1].AwaitInbox(p)
			for _, pkt := range rg.ctx[1].PollInbox() {
				note("send arrived", pkt.Payload.(int), p.Now())
			}
		}
	}).SetDaemon(true)
	rg.k.Spawn("post", func(p *sim.Proc) {
		amr := rg.ctx[0].RegisterMR(p, a.Addr(), a.Size())
		bmr := rg.ctx[1].RegisterMR(p, b.Addr(), b.Size())
		for i := 0; i < n; i++ {
			w := WriteOp{
				LocalKey: amr.LKey(), LocalAddr: a.Addr() + mem.Addr(i*size),
				RemoteKey: bmr.RKey(), RemoteAddr: b.Addr() + mem.Addr(i*size), Size: size,
				OnRemoteComplete: sim.Func(func(at sim.Time) { note("write landed", i, at) }),
			}
			if i%2 == 0 {
				w.OnError = sim.Func(func(at sim.Time) { note("write failed", i, at) })
			}
			if err := rg.ctx[0].PostWrite(p, w); err != nil {
				t.Fatalf("PostWrite: %v", err)
			}
			r := ReadOp{
				LocalKey: amr.LKey(), LocalAddr: a.Addr() + mem.Addr((n+i)*size),
				RemoteKey: bmr.RKey(), RemoteAddr: b.Addr() + mem.Addr((n+i)*size), Size: size,
				OnComplete: sim.Func(func(at sim.Time) { note("read landed", i, at) }),
			}
			if i%2 == 1 {
				r.OnError = sim.Func(func(at sim.Time) { note("read failed", i, at) })
			}
			if err := rg.ctx[0].PostRead(p, r); err != nil {
				t.Fatalf("PostRead: %v", err)
			}
			rg.ctx[0].PostSend(p, rg.ctx[1], &Packet{Kind: "ctrl", Size: 64, Payload: i})
		}
	})
	rg.k.Run()
	fmt.Fprintf(&log, "fired %d\nfaults %+v\nmemory %x %x\n", rg.k.Stats().Fired, in.Stats,
		sha256.Sum256(a.Bytes()), sha256.Sum256(b.Bytes()))
	if traced {
		h := sha256.New()
		if err := sc.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&log, "spans %d %x\n", sc.Len(), h.Sum(nil))
	}
	return log.Bytes()
}

// Retries, terminal errors and their span records are pinned exactly: every
// completion and failure time, the number of events fired, the fault
// counters, the landed bytes and, traced, every span. A different hash is a
// change of fault behaviour, not a refactoring.
func TestRetryOutcomesPinned(t *testing.T) {
	for _, c := range []struct {
		traced bool
		want   string
	}{
		{false, "1a6c576c006550cd17db6f81ede695fb7a1d1305df36cbcd7d3baa6c2e6605ca"},
		{true, "b1f22f327d55426b2ab745f1c3a45c8a13436dee86122124ce63a68aec0a0941"},
	} {
		out := retryOutcome(t, c.traced)
		if !bytes.Contains(out, []byte("failed")) || !bytes.Contains(out, []byte("Exhausted:")) {
			t.Fatalf("traced=%v: the plan exhausted no retry budget:\n%s", c.traced, out)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("traced=%v: outcome hashes to %s, want %s\n%s", c.traced, got, c.want, out)
		}
	}
}

// The aggregate "verbs/all/retries" counter agrees with the injector's own
// retry total.
func TestRetryCounterMatchesInjectorUnderDrops(t *testing.T) {
	cfg := fault.DefaultConfig(3)
	cfg.DropRate = 0.5
	rg, in := newFaultRig(2, cfg)
	met := metrics.NewRegistry()
	rg.r.SetMetrics(met)
	src := rg.sp[0].Alloc(4096, true)
	dst := rg.sp[1].Alloc(4096, true)
	rg.k.Spawn("p", func(p *sim.Proc) {
		smr := rg.ctx[0].RegisterMR(p, src.Addr(), 4096)
		dmr := rg.ctx[1].RegisterMR(p, dst.Addr(), 4096)
		for i := 0; i < 20; i++ {
			if err := rg.ctx[0].PostWrite(p, WriteOp{
				LocalKey: smr.LKey(), LocalAddr: src.Addr(),
				RemoteKey: dmr.RKey(), RemoteAddr: dst.Addr(), Size: 4096,
			}); err != nil {
				t.Fatalf("PostWrite: %v", err)
			}
		}
	})
	rg.k.Run()
	if in.Stats.Retries == 0 {
		t.Fatal("no retries under 50% drops; the counter has nothing to count")
	}
	if agg := met.Counter("verbs", "all", "retries").Value(); agg != in.Stats.Retries {
		t.Fatalf("aggregate retry counter = %d, want %d", agg, in.Stats.Retries)
	}
}
