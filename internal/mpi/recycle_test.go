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
// ranks computing first so their messages arrive unexpected — and in each
// also a blocking Send/Recv pair with the other node and a ring broadcast
// whose receives are tested done before they are waited on (the hpl and
// ringbcast shape), every receive holds its sender's bytes, and the
// message, rendezvous, request and packet free lists hold each record at
// most once and none still queued: with no plan, under a zero-rate plan,
// and under drops, corruption, delay spikes and error CQEs, where records
// recycle just the same. A successful Test releases nothing; the Wait after
// it releases the handle.

func TestRecycledMessagesNoDoubleFree(t *testing.T) {
	t.Run("no plan", func(t *testing.T) { recycledMessages(t, nil) })
	t.Run("zero rate", func(t *testing.T) { recycledMessages(t, fault.DefaultConfig(1)) })
	t.Run("faults", func(t *testing.T) { recycledMessages(t, fault.Scaled(5, 0.1)) })
}

// rigIters is the rig's iteration count; ringTag tags its ring broadcast.
const rigIters, ringTag = 3, 9

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
		np := r.Size()
		var send, recv [][2]*mem.Buffer
		for range np {
			send = append(send, [2]*mem.Buffer{r.Alloc(sizes[0]), r.Alloc(sizes[1])})
			recv = append(recv, [2]*mem.Buffer{r.Alloc(sizes[0]), r.Alloc(sizes[1])})
		}
		ring := r.Alloc(sizes[1])
		for it := 0; it < rigIters; it++ {
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

			// Blocking pairs with the rank at the same slot of the other
			// node, eager and rendezvous; their patterns follow the
			// nonblocking iterations'.
			peer := (me + np/2) % np
			for k, n := range sizes {
				copy(send[peer][k].Bytes(), pattern(me, peer, k, rigIters+it))
				if me < peer {
					r.Send(send[peer][k].Addr(), n, peer, k)
					r.Recv(recv[peer][k].Addr(), n, peer, k)
				} else {
					r.Recv(recv[peer][k].Addr(), n, peer, k)
					r.Send(send[peer][k].Addr(), n, peer, k)
				}
				if !bytes.Equal(recv[peer][k].Bytes(), pattern(peer, me, k, rigIters+it)) {
					t.Errorf("iteration %d: rank %d holds the wrong bytes from its Recv from rank %d (kind %d)", it, me, peer, k)
				}
			}

			// The ring broadcast: forward once Test sees the receive done,
			// then Wait on the tested handle.
			right, left := (me+1)%np, (me-1+np)%np
			var sq, rq *Request
			if me == 0 {
				copy(ring.Bytes(), pattern(0, 0, 1, 2*rigIters+it))
				sq = r.Isend(ring.Addr(), sizes[1], right, ringTag)
			} else {
				// A broken rank returns rather than wait on what it lost, so
				// the others deadlock and the run ends.
				rq = r.Irecv(ring.Addr(), sizes[1], left, ringTag)
				for tries := 0; !r.Test(rq); tries++ {
					if tries == 1000 {
						t.Errorf("iteration %d: rank %d: the ring message never arrived", it, me)
						return
					}
					r.Compute(5 * sim.Microsecond)
				}
				if set, _ := r.w.reqs.Free(); set[rq] {
					t.Errorf("iteration %d: rank %d: a successful Test released the request", it, me)
					return
				}
				if right != 0 {
					sq = r.Isend(ring.Addr(), sizes[1], right, ringTag)
				}
				r.Wait(rq)
				if set, _ := r.w.reqs.Free(); !set[rq] {
					t.Errorf("iteration %d: rank %d: Wait after a successful Test did not release the request", it, me)
				}
				if !bytes.Equal(ring.Bytes(), pattern(0, 0, 1, 2*rigIters+it)) {
					t.Errorf("iteration %d: rank %d holds the wrong ring bytes", it, me)
				}
			}
			if sq != nil {
				r.Wait(sq)
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
	freeReqs, ok := w.reqs.Free()
	if len(freeReqs) == 0 {
		t.Fatal("no request was released")
	}
	if !ok {
		t.Error("request free list holds a record twice")
	}
	for q := range freeReqs {
		if *q != (Request{}) {
			t.Errorf("a released request is still bound to an operation")
		}
	}
	for _, r := range w.ranks {
		for _, q := range r.posted {
			if freeReqs[q] {
				t.Errorf("rank %d: a posted receive is on the free list", r.rank)
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
