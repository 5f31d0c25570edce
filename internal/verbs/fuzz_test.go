package verbs

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/sim"
)

// FuzzVerbsFaults posts up to 16 RDMA writes, RDMA reads and control sends
// under a random fault plan — drop, corruption, delay and error-CQE rates of
// 0–50 % each, a retry budget of 1–8 attempts — and checks the retry
// machinery's contract:
//   - every write and read fires exactly one of its completion and OnError;
//   - a completed op has landed the posted bytes (a write the snapshot taken
//     at post time, though the source changes right after), a failed one none;
//   - every send reaches its inbox at most once, and one that never does is
//     counted as exhausted;
//   - the run drains within a virtual-time bound;
//   - no free list holds a record twice.
func FuzzVerbsFaults(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, drop, corrupt, delay, cqe, attempts uint8, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		pct := func(b uint8) float64 { return float64(b%51) / 100 }
		cfg := fault.DefaultConfig(seed)
		cfg.DropRate, cfg.CorruptRate, cfg.DelayRate, cfg.CQErrorRate = pct(drop), pct(corrupt), pct(delay), pct(cqe)
		cfg.Retry.MaxAttempts = 1 + int(attempts%8)
		rg, in := newFaultRig(2, cfg)

		const slot = 1024
		n := len(ops)
		a := rg.sp[0].Alloc(n*slot+1, true)
		b := rg.sp[1].Alloc(n*slot+1, true)
		want := make([][]byte, n) // the bytes op i must land
		done := make([]int, n)    // completions + failures fired per op
		failed := make([]bool, n)
		arrived := make([]int, n)
		for i, op := range ops {
			want[i] = bytes.Repeat([]byte{byte(i*29 + 1)}, 64*(1+int(op/3)%16))
		}
		addr := func(m *mem.Buffer, i int) mem.Addr { return m.Addr() + mem.Addr(i*slot) }
		at := func(m *mem.Buffer, i int) []byte { return m.Bytes()[i*slot : i*slot+len(want[i])] }
		complete := func(i int, landed []byte) sim.Action {
			return sim.Func(func(sim.Time) {
				done[i]++
				if !bytes.Equal(landed, want[i]) {
					t.Errorf("op %d (kind %d) completed without its posted bytes", i, ops[i]%3)
				}
			})
		}
		fail := func(i int) sim.Action { return sim.Func(func(sim.Time) { done[i]++; failed[i] = true }) }

		receive(rg.k, rg.ctx[1], func(pkt *Packet, _ sim.Time) {
			arrived[pkt.Payload.(int)]++
			rg.r.PutPacket(pkt)
		})
		rg.k.Spawn("post", func(p *sim.Proc) {
			amr := rg.ctx[0].RegisterMR(p, a.Addr(), a.Size())
			bmr := rg.ctx[1].RegisterMR(p, b.Addr(), b.Size())
			for i, op := range ops {
				size := len(want[i])
				switch op % 3 {
				case 0:
					copy(at(a, i), want[i])
					err := rg.ctx[0].PostWrite(p, WriteOp{
						LocalKey: amr.LKey(), LocalAddr: addr(a, i),
						RemoteKey: bmr.RKey(), RemoteAddr: addr(b, i), Size: size,
						OnRemoteComplete: complete(i, at(b, i)), OnError: fail(i),
					})
					if err != nil {
						t.Fatal(err)
					}
					clear(at(a, i)) // every attempt must send the post-time snapshot
				case 1:
					copy(at(b, i), want[i])
					err := rg.ctx[0].PostRead(p, ReadOp{
						LocalKey: amr.LKey(), LocalAddr: addr(a, i),
						RemoteKey: bmr.RKey(), RemoteAddr: addr(b, i), Size: size,
						OnComplete: complete(i, at(a, i)), OnError: fail(i),
					})
					if err != nil {
						t.Fatal(err)
					}
				default:
					pkt := rg.r.GetPacket()
					pkt.Kind, pkt.Size, pkt.Payload = "ctrl", size, i
					rg.ctx[0].PostSend(p, rg.ctx[1], pkt)
				}
			}
		})
		rg.k.RunUntil(100 * sim.Millisecond)
		if pending := rg.k.Pending(); pending != 0 {
			t.Fatalf("%d events still pending at the virtual-time bound", pending)
		}

		var exhausted int64
		for i, op := range ops {
			switch {
			case op%3 == 2:
				if arrived[i] > 1 {
					t.Errorf("send %d reached its inbox %d times", i, arrived[i])
				}
				if arrived[i] == 0 {
					exhausted++
				}
			case done[i] != 1:
				t.Errorf("op %d (kind %d) fired %d of completion and OnError, want exactly 1", i, op%3, done[i])
			case failed[i]:
				exhausted++
				landed := at(b, i)
				if op%3 == 1 {
					landed = at(a, i)
				}
				if !bytes.Equal(landed, make([]byte, len(landed))) {
					t.Errorf("op %d (kind %d) failed but landed bytes", i, op%3)
				}
			}
		}
		if in.Stats.Exhausted != exhausted {
			t.Errorf("%d ops exhausted their retries, but the injector counted %d", exhausted, in.Stats.Exhausted)
		}
		noDuplicates(t, "write flight", &rg.r.wf)
		noDuplicates(t, "read flight", &rg.r.rf)
		noDuplicates(t, "send flight", &rg.r.sf)
		noDuplicates(t, "packet", &rg.r.pk)
		if n := len(rg.r.onErr); n != 0 {
			t.Errorf("%d OnError handlers outlived their flights", n)
		}
		rg.k.Shutdown()
	})
}

func noDuplicates[T any](t *testing.T, name string, l *pool.List[T]) {
	t.Helper()
	if _, distinct := l.Free(); !distinct {
		t.Errorf("%s free list holds a record twice", name)
	}
}
