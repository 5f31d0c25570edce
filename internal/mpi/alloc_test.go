package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/sim"
)

// roundAllocs runs round on every rank of a nodes×ppn world once per period
// of virtual time and returns the allocations of one warm round — every
// layer, every rank. The first rounds warm the free lists, inbox buffers and
// event arena.
func roundAllocs(t *testing.T, nodes, ppn int, round func(r *Rank)) float64 {
	t.Helper()
	const period = 200 * sim.Microsecond
	cl := cluster.New(cluster.DefaultConfig(nodes, ppn))
	w := NewWorld(cl)
	rounds := 0
	w.Launch(func(r *Rank) {
		for n := sim.Time(1); ; n++ {
			round(r)
			if r.RankID() == 0 {
				rounds++
			}
			r.Proc().Sleep(n*period - r.Now())
		}
	})
	cl.K.RunUntil(4 * period)
	before := rounds
	allocs := testing.AllocsPerRun(20, func() { cl.K.RunUntil(cl.K.Now() + period) })
	if rounds-before != 21 { // AllocsPerRun runs f once more, to warm up
		t.Fatalf("%d rounds in 21 periods, want one per period", rounds-before)
	}
	cl.K.Shutdown()
	return allocs
}

// A warm dissemination barrier — intra-node shared-memory and inter-node
// eager rounds alike — allocates nothing: its two requests are the rank's
// own, and every message record and packet is recycled by its consumer.
func TestBarrierAllocFree(t *testing.T) {
	if a := roundAllocs(t, 4, 4, func(r *Rank) { r.Barrier() }); a != 0 {
		t.Fatalf("a warm 16-rank barrier allocates %.1f objects, want 0", a)
	}
}

// A warm inter-node eager pair allocates nothing: the requests Isend and
// Irecv hand to the caller go back to the world's free list when Wait
// returns, and the message record and packet are recycled by their consumer.
func TestEagerPairAllocFree(t *testing.T) {
	const size = 1024
	a := roundAllocs(t, 2, 1, func(r *Rank) {
		buf := r.scratch(size)
		if r.RankID() == 0 {
			r.Wait(r.Isend(buf, size, 1, 5))
		} else {
			r.Wait(r.Irecv(buf, size, 0, 5))
		}
	})
	if a != 0 {
		t.Fatalf("a warm eager Isend/Irecv pair allocates %.1f objects, want 0", a)
	}
}

// A warm inter-node rendezvous pair allocates nothing: its two requests are
// released by Wait, and the RTS, the RDMA read and its FIN ride recycled
// records.
func TestRendezvousPairAllocFree(t *testing.T) {
	const size = 40000
	a := roundAllocs(t, 2, 1, func(r *Rank) {
		buf := r.scratch(size)
		if r.RankID() == 0 {
			r.Wait(r.Isend(buf, size, 1, 5))
		} else {
			r.Wait(r.Irecv(buf, size, 0, 5))
		}
	})
	if a != 0 {
		t.Fatalf("a warm rendezvous Isend/Irecv pair allocates %.1f objects, want 0", a)
	}
}

// A warm Ialltoall of rendezvous-sized blocks allocates nothing, whatever the
// rank count: its CollRequest comes from the world's free list, which
// WaitColl refills. Its schedule is data, not a closure, and the rank's own
// block is copied in place once the copy is paid for. The 2(np-1) requests of a call come from
// the slab the rank's last call handed back, and every message record is
// recycled.
func TestIalltoallAllocFree(t *testing.T) {
	const per = 20000
	perRank := func(nodes, ppn int) float64 {
		np := nodes * ppn
		return roundAllocs(t, nodes, ppn, func(r *Rank) {
			buf := r.scratch(2 * np * per)
			r.WaitColl(r.Ialltoall(buf, buf+mem.Addr(np*per), per))
		}) / float64(np)
	}
	if a8, a16 := perRank(2, 4), perRank(4, 4); a8 != a16 || a8 != 0 {
		t.Fatalf("a warm Ialltoall allocates %.2f objects per rank at 8 ranks and %.2f at 16, want 0 at both", a8, a16)
	}
}
