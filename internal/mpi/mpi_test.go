package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// runWorld builds a cluster, launches main on every rank and runs to
// completion, failing the test on deadlock.
func runWorld(t *testing.T, nodes, ppn int, main func(r *Rank)) *World {
	t.Helper()
	return runWorldOn(t, cluster.DefaultConfig(nodes, ppn), main)
}

// runWorldOn is runWorld on a cluster built from ccfg (a fault plan, say).
func runWorldOn(t *testing.T, ccfg cluster.Config, main func(r *Rank)) *World {
	t.Helper()
	cl := cluster.New(ccfg)
	w := NewWorld(cl)
	w.Launch(main)
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		var names []string
		for _, p := range cl.K.Deadlocked {
			names = append(names, p.Name())
		}
		t.Fatalf("deadlocked processes: %v", names)
	}
	return w
}

func fill(r *Rank, b *mem.Buffer, seed byte) {
	if !b.Backed() {
		return
	}
	d := b.Bytes()
	for i := range d {
		d[i] = seed + byte(i)
	}
}

func TestEagerSendRecvInterNode(t *testing.T) {
	const size = 1024 // below eager threshold
	runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(size)
		switch r.RankID() {
		case 0:
			fill(r, buf, 42)
			r.Send(buf.Addr(), size, 1, 7)
		case 1:
			r.Recv(buf.Addr(), size, 0, 7)
			want := make([]byte, size)
			for i := range want {
				want[i] = 42 + byte(i)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Error("eager payload corrupted")
			}
		}
	})
}

func TestRendezvousSendRecvInterNode(t *testing.T) {
	const size = 256 << 10 // above eager threshold
	runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(size)
		switch r.RankID() {
		case 0:
			fill(r, buf, 9)
			r.Send(buf.Addr(), size, 1, 0)
		case 1:
			r.Recv(buf.Addr(), size, 0, 0)
			for i, b := range buf.Bytes() {
				if b != 9+byte(i) {
					t.Errorf("byte %d = %d", i, b)
					return
				}
			}
		}
	})
}

func TestIntraNodeShmPath(t *testing.T) {
	for _, size := range []int{512, 128 << 10} {
		size := size
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			ccfg := cluster.DefaultConfig(1, 2)
			ccfg.Metrics = metrics.NewRegistry()
			w := runWorldOn(t, ccfg, func(r *Rank) {
				buf := r.Alloc(size)
				if r.RankID() == 0 {
					fill(r, buf, 1)
					r.Send(buf.Addr(), size, 1, 3)
				} else {
					r.Recv(buf.Addr(), size, 0, 3)
					if buf.Backed() && buf.Bytes()[size-1] != 1+byte(size-1) {
						t.Error("shm payload corrupted")
					}
				}
			})
			// Intra-node traffic must not touch the HCA.
			snap := ccfg.Metrics.Snapshot()
			if n := snap.CounterValue("mpi", "all", "shm_msgs"); n != 1 {
				t.Errorf("%d shm messages, want 1", n)
			}
			if n := snap.CounterValue("fabric", w.Cl.Nodes[0].HostEP.Name(), "msgs_tx"); n != 0 {
				t.Errorf("intra-node send used the HCA (%d msgs)", n)
			}
		})
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(512)
		switch r.RankID() {
		case 0:
			fill(r, buf, 5)
			r.Send(buf.Addr(), 512, 1, 11)
		case 1:
			r.Compute(50 * sim.Microsecond) // message arrives before post
			r.Recv(buf.Addr(), 512, 0, 11)
			if buf.Bytes()[0] != 5 {
				t.Error("unexpected-queue payload lost")
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	runWorld(t, 2, 1, func(r *Rank) {
		a, b := r.Alloc(64), r.Alloc(64)
		switch r.RankID() {
		case 0:
			fill(r, a, 10)
			fill(r, b, 20)
			r.Send(a.Addr(), 64, 1, 1)
			r.Send(b.Addr(), 64, 1, 2)
		case 1:
			// Post in reverse tag order: matching must be by tag.
			q2 := r.Irecv(b.Addr(), 64, 0, 2)
			q1 := r.Irecv(a.Addr(), 64, 0, 1)
			r.WaitAll(q1, q2)
			if a.Bytes()[0] != 10 || b.Bytes()[0] != 20 {
				t.Errorf("tag matching wrong: %d %d", a.Bytes()[0], b.Bytes()[0])
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runWorld(t, 2, 2, func(r *Rank) {
		buf := r.Alloc(64)
		if r.RankID() == 3 {
			fill(r, buf, 77)
			r.Send(buf.Addr(), 64, 0, 99)
		}
		if r.RankID() == 0 {
			r.Recv(buf.Addr(), 64, AnySource, AnyTag)
			if buf.Bytes()[0] != 77 {
				t.Error("wildcard receive failed")
			}
		}
	})
}

func TestTestDoesNotBlock(t *testing.T) {
	runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(64 << 10)
		switch r.RankID() {
		case 0:
			r.Compute(100 * sim.Microsecond)
			r.Send(buf.Addr(), buf.Size(), 1, 0)
		case 1:
			q := r.Irecv(buf.Addr(), buf.Size(), 0, 0)
			polls := 0
			for !r.Test(q) {
				polls++
				r.Compute(5 * sim.Microsecond)
			}
			if polls == 0 {
				t.Error("Test returned done before sender even started")
			}
		}
	})
}

func TestRendezvousDelayedByComputeNoProgress(t *testing.T) {
	// The semantic-mismatch effect: a rendezvous message cannot complete
	// while the receiver computes without MPI calls.
	var recvDone sim.Time
	const size = 1 << 20
	const compute = 2 * sim.Millisecond
	runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(size)
		switch r.RankID() {
		case 0:
			r.Send(buf.Addr(), size, 1, 0)
		case 1:
			q := r.Irecv(buf.Addr(), size, 0, 0)
			r.Compute(compute) // no progress during this
			r.Wait(q)
			recvDone = r.Now()
		}
	})
	if recvDone < compute {
		t.Fatalf("receive completed at %v, before compute ended at %v", recvDone, compute)
	}

	// The ring broadcast of hpl's Ring1 variant, 1 MiB over three nodes:
	// rank 0 sends the panel to rank 1, and rank 1 forwards it to rank 2
	// once a Test between compute chunks finds it arrived. A probe halfway
	// through every chunk finds the rank outside the library with no step
	// pending — a step firing then would panic the run — and counts the
	// chunks during which an arrival sat in the NIC. MPITime is exactly the
	// time spent in Test and Wait, and it and the finishing instants are
	// those of the process-stack implementation this one replaced.
	const chunk = 50 * sim.Microsecond
	type tally struct {
		mpi, done sim.Time
		chunks    int
	}
	var got [3]tally
	var busy, waiting int
	w := runWorld(t, 3, 1, func(r *Rank) {
		me := r.RankID()
		buf := r.Alloc(size)
		var tl tally
		timed := func(call func()) {
			t0 := r.Now()
			call()
			tl.mpi += r.Now() - t0
		}
		compute := func() {
			r.w.Cl.K.At(chunk/2, func() {
				if r.inCall || r.call != callNone || r.clk.Charged() {
					busy++
				}
				if r.site.Ctx.InboxLen() > 0 {
					waiting++
				}
			})
			r.Compute(chunk)
			tl.chunks++
		}
		var sq, rq *Request
		if me == 0 {
			sq = r.Isend(buf.Addr(), size, 1, 0)
			for range 4 {
				compute()
			}
		} else {
			rq = r.Irecv(buf.Addr(), size, me-1, 0)
			for {
				var ok bool
				timed(func() { ok = r.Test(rq) })
				if ok {
					break
				}
				compute()
			}
			if me+1 < r.Size() {
				sq = r.Isend(buf.Addr(), size, me+1, 0)
			}
			timed(func() { r.Wait(rq) })
		}
		if sq != nil {
			timed(func() { r.Wait(sq) })
		}
		tl.done = r.Now()
		got[me] = tl
	})
	if busy != 0 || waiting == 0 {
		t.Errorf("mid-compute probes: %d found the rank inside the library, %d an arrival waiting in the NIC; want 0 and some", busy, waiting)
	}
	want := [3]tally{{1455, 267535, 4}, {267455, 467535, 4}, {66220, 466220, 8}}
	for i, g := range got {
		r := w.Rank(i)
		if r.MPITime != g.mpi || r.ComputeTime != sim.Time(g.chunks)*chunk {
			t.Errorf("rank %d: MPITime %v, ComputeTime %v; the calls took %v, %d chunks %v", i, r.MPITime, r.ComputeTime, g.mpi, g.chunks, sim.Time(g.chunks)*chunk)
		}
		if g != want[i] {
			t.Errorf("rank %d: %+v, want %+v", i, g, want[i])
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const np = 7
	after := make([]sim.Time, np)
	var maxEnter sim.Time
	runWorld(t, np, 1, func(r *Rank) {
		d := sim.Time(r.RankID()) * 10 * sim.Microsecond
		r.Compute(d)
		if d > maxEnter {
			maxEnter = d
		}
		r.Barrier()
		after[r.RankID()] = r.Now()
	})
	for i, ts := range after {
		if ts < maxEnter {
			t.Fatalf("rank %d left barrier at %v before last entry %v", i, ts, maxEnter)
		}
	}
}

func checkAlltoall(t *testing.T, r *Rank, recv *mem.Buffer, per int) {
	t.Helper()
	for src := 0; src < r.Size(); src++ {
		blk := recv.Bytes()[src*per : src*per+per]
		for i, b := range blk {
			want := byte(src*16+r.RankID()) + byte(i)
			if b != want {
				t.Errorf("rank %d block from %d byte %d = %d, want %d", r.RankID(), src, i, b, want)
				return
			}
		}
	}
}

func TestAlltoallCorrectness(t *testing.T) {
	const per = 2048
	runWorld(t, 3, 2, func(r *Rank) {
		np := r.Size()
		send, recv := r.Alloc(np*per), r.Alloc(np*per)
		for dst := 0; dst < np; dst++ {
			blk := send.Bytes()[dst*per : dst*per+per]
			for i := range blk {
				blk[i] = byte(r.RankID()*16+dst) + byte(i)
			}
		}
		r.WaitColl(r.Comm().Ialltoall(send.Addr(), recv.Addr(), per))
		checkAlltoall(t, r, recv, per)
	})
}

func TestIalltoallOverlapsAndCompletes(t *testing.T) {
	const per = 64 << 10
	runWorld(t, 4, 1, func(r *Rank) {
		np := r.Size()
		send, recv := r.Alloc(np*per), r.Alloc(np*per)
		for dst := 0; dst < np; dst++ {
			blk := send.Bytes()[dst*per : dst*per+per]
			for i := range blk {
				blk[i] = byte(r.RankID()*16+dst) + byte(i)
			}
		}
		c := r.Ialltoall(send.Addr(), recv.Addr(), per)
		r.Compute(200 * sim.Microsecond)
		r.WaitColl(c)
		checkAlltoall(t, r, recv, per)
	})
}

func TestIbcastCorrectness(t *testing.T) {
	for _, np := range []int{2, 3, 4, 5, 8} {
		t.Run(fmt.Sprint(np), func(t *testing.T) {
			for _, root := range []int{0, 1} {
				const size = 32 << 10
				runWorld(t, np, 1, func(r *Rank) {
					buf := r.Alloc(size)
					if r.RankID() == root {
						fill(r, buf, 3)
					}
					r.WaitColl(r.Ibcast(buf.Addr(), size, root))
					for i, b := range buf.Bytes() {
						if b != 3+byte(i) {
							t.Errorf("rank %d, root %d: byte %d = %d", r.RankID(), root, i, b)
							return
						}
					}
				})
			}
		})
	}
}

func TestRegistrationCacheAmortizes(t *testing.T) {
	// Repeated rendezvous sends from the same buffer must register once.
	w := runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(128 << 10)
		for it := 0; it < 5; it++ {
			if r.RankID() == 0 {
				r.Send(buf.Addr(), buf.Size(), 1, it)
			} else {
				r.Recv(buf.Addr(), buf.Size(), 0, it)
			}
		}
	})
	// One send-side + one recv-side registration.
	if got := w.Cl.Reg.Registrations; got != 2 {
		t.Fatalf("registrations = %d, want 2 (cache must amortize)", got)
	}
}

func TestSelfSend(t *testing.T) {
	runWorld(t, 1, 1, func(r *Rank) {
		a, b := r.Alloc(256), r.Alloc(256)
		fill(r, a, 8)
		sq := r.Isend(a.Addr(), 256, 0, 1)
		rq := r.Irecv(b.Addr(), 256, 0, 1)
		r.WaitAll(sq, rq)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Error("self-send payload wrong")
		}
	})
}

func TestZeroByteMessage(t *testing.T) {
	runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(8)
		if r.RankID() == 0 {
			r.Send(buf.Addr(), 0, 1, 0)
		} else {
			r.Recv(buf.Addr(), 0, 0, 0)
		}
	})
}

func TestMPITimeAccounting(t *testing.T) {
	w := runWorld(t, 2, 1, func(r *Rank) {
		buf := r.Alloc(1 << 20)
		if r.RankID() == 0 {
			r.Compute(time100())
			r.Send(buf.Addr(), buf.Size(), 1, 0)
		} else {
			q := r.Irecv(buf.Addr(), buf.Size(), 0, 0)
			r.Compute(time100())
			r.Wait(q)
		}
	})
	r1 := w.Rank(1)
	if r1.ComputeTime != time100() {
		t.Fatalf("ComputeTime = %v", r1.ComputeTime)
	}
	if r1.MPITime <= 0 {
		t.Fatal("MPITime not accumulated")
	}
}

func time100() sim.Time { return 100 * sim.Microsecond }

func TestMessagesOrderedBetweenPair(t *testing.T) {
	// Two same-tag sends must match posted receives in order.
	runWorld(t, 2, 1, func(r *Rank) {
		a, b := r.Alloc(64), r.Alloc(64)
		if r.RankID() == 0 {
			fill(r, a, 1)
			fill(r, b, 2)
			r.Send(a.Addr(), 64, 1, 0)
			r.Send(b.Addr(), 64, 1, 0)
		} else {
			q1 := r.Irecv(a.Addr(), 64, 0, 0)
			q2 := r.Irecv(b.Addr(), 64, 0, 0)
			r.WaitAll(q1, q2)
			if a.Bytes()[0] != 1 || b.Bytes()[0] != 2 {
				t.Errorf("ordering broken: %d %d", a.Bytes()[0], b.Bytes()[0])
			}
		}
	})
}

func TestIallgatherCorrectness(t *testing.T) {
	const per = 4096
	runWorld(t, 3, 2, func(r *Rank) {
		np := r.Size()
		send, recv := r.Alloc(per), r.Alloc(np*per)
		fill(r, send, byte(r.RankID()*40))
		c := r.Iallgather(send.Addr(), recv.Addr(), per)
		r.Compute(50 * sim.Microsecond)
		r.WaitColl(c)
		for src := 0; src < np; src++ {
			if recv.Bytes()[src*per] != byte(src*40) {
				t.Errorf("rank %d: block %d wrong", r.RankID(), src)
			}
		}
	})
}
