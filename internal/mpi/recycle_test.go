package mpi

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// After every rank of a backed 2×2 world has exchanged eager, large (shm or
// rendezvous) and self messages with every rank for three iterations — odd
// ranks computing first so their messages arrive unexpected — every receive
// holds its sender's bytes, and the message, rendezvous and packet free
// lists hold each record at most once and none still queued: with no plan,
// under a zero-rate plan, and under drops, corruption, delay spikes and
// error CQEs, where records recycle just the same.
func TestRecycledMessagesNoDoubleFree(t *testing.T) {
	t.Run("no plan", func(t *testing.T) { recycledMessages(t, nil) })
	t.Run("zero rate", func(t *testing.T) { recycledMessages(t, fault.DefaultConfig(1)) })
	t.Run("faults", func(t *testing.T) { recycledMessages(t, fault.Scaled(5, 0.1)) })
}

func recycledMessages(t *testing.T, plan *fault.Config) {
	sizes := [2]int{1000, 40000}
	pattern := func(src, dst, k, it int) []byte {
		b := make([]byte, sizes[k])
		for i := range b {
			b[i] = byte(src*37 + dst*11 + k*5 + it*3 + i)
		}
		return b
	}
	ccfg := cluster.DefaultConfig(2, 2)
	ccfg.Fault = plan
	w := runWorldOn(t, ccfg, func(r *Rank) {
		me := r.RankID()
		var send, recv [][2]*mem.Buffer
		for range r.Size() {
			send = append(send, [2]*mem.Buffer{r.Alloc(sizes[0]), r.Alloc(sizes[1])})
			recv = append(recv, [2]*mem.Buffer{r.Alloc(sizes[0]), r.Alloc(sizes[1])})
		}
		for it := 0; it < 3; it++ {
			var reqs []*Request
			for peer := range r.Size() {
				for k, n := range sizes {
					copy(send[peer][k].Bytes(), pattern(me, peer, k, it))
					reqs = append(reqs, r.Isend(send[peer][k].Addr(), n, peer, k))
				}
			}
			if me%2 == 1 {
				r.Compute(30 * sim.Microsecond)
			}
			for peer := range r.Size() {
				for k, n := range sizes {
					reqs = append(reqs, r.Irecv(recv[peer][k].Addr(), n, peer, k))
				}
			}
			r.WaitAll(reqs...)
			for peer := range r.Size() {
				for k := range sizes {
					if !bytes.Equal(recv[peer][k].Bytes(), pattern(peer, me, k, it)) {
						t.Errorf("iteration %d: rank %d holds the wrong bytes from rank %d (kind %d)", it, me, peer, k)
					}
				}
			}
			r.Barrier()
		}
	})
	free, ok := w.msgs.Free()
	if len(free) == 0 {
		t.Fatal("no message record was recycled")
	}
	if !ok {
		t.Error("message free list holds a record twice")
	}
	for _, r := range w.ranks {
		for _, m := range append(r.unexpected, r.shmIn...) {
			if free[m] {
				t.Errorf("rank %d: a queued message is on the free list", r.rank)
			}
		}
	}
	freeRndv, ok := w.rndvs.Free()
	if len(freeRndv) == 0 {
		t.Fatal("no rendezvous record was recycled")
	}
	if !ok {
		t.Error("rendezvous free list holds a record twice")
	}
	for v := range freeRndv {
		if v.r != nil || v.req != nil || v.sendReq != nil {
			t.Errorf("a free rendezvous record is still bound to a message")
		}
	}
	for _, r := range w.ranks {
		for _, v := range r.deferred {
			if freeRndv[v] {
				t.Errorf("rank %d: a rendezvous awaiting its FIN is on the free list", r.rank)
			}
		}
	}
	if plan != nil && plan.DropRate > 0 && w.Cl.Inj.Stats.Retries == 0 {
		t.Fatalf("the plan caused no retransmission: %+v", w.Cl.Inj.Stats)
	}
	// The packet pool is verbs-private: drain it through GetPacket. Fresh
	// packets are distinct, so a pointer seen twice was put twice.
	pkts := make(map[*verbs.Packet]bool)
	for range 1 << 14 {
		pkt := w.Cl.Reg.GetPacket()
		if pkts[pkt] {
			t.Fatalf("packet free list holds %p twice", pkt)
		}
		pkts[pkt] = true
	}
}
