package coll

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// launch builds a cluster+world+framework and runs main with both backends
// available.
func launch(t *testing.T, nodes, ppn int, fcfg core.Config, main func(r *mpi.Rank, h *core.Host)) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(nodes, ppn))
	w := mpi.NewWorld(cl, mpi.DefaultConfig())
	sites := make([]*cluster.Site, cl.Cfg.NP())
	for i := range sites {
		sites[i] = w.Rank(i).Site()
	}
	fw := core.New(cl, fcfg, sites)
	fw.Start()
	w.Launch(func(r *mpi.Rank) {
		h := fw.Host(r.RankID())
		h.Bind(r.Proc())
		main(r, h)
	})
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		t.Fatalf("deadlocked: %d procs", len(cl.K.Deadlocked))
	}
}

func fillBlocks(r *mpi.Rank, buf []byte, per int) {
	np := r.Size()
	for dst := 0; dst < np; dst++ {
		for i := 0; i < per; i++ {
			buf[dst*per+i] = byte(r.RankID()*31 + dst*7 + i)
		}
	}
}

func checkBlocks(t *testing.T, r *mpi.Rank, buf []byte, per int) {
	t.Helper()
	for src := 0; src < r.Size(); src++ {
		for i := 0; i < per; i++ {
			want := byte(src*31 + r.RankID()*7 + i)
			if buf[src*per+i] != want {
				t.Errorf("rank %d: block %d byte %d = %d, want %d",
					r.RankID(), src, i, buf[src*per+i], want)
				return
			}
		}
	}
}

func TestOffloadIalltoallCorrectAndCached(t *testing.T) {
	const per = 4 << 10
	launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		ops := NewOffloadOps("proposed", r, h)
		np := r.Size()
		send, recv := r.Alloc(np*per), r.Alloc(np*per)
		for it := 0; it < 3; it++ {
			fillBlocks(r, send.Bytes(), per)
			q := ops.Ialltoall(0, send.Addr(), recv.Addr(), per)
			ops.Wait(q)
			checkBlocks(t, r, recv.Bytes(), per)
			r.Barrier()
		}
	})
}

func TestHostIalltoallCorrect(t *testing.T) {
	const per = 4 << 10
	launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		ops := NewHostOps("intelmpi", r)
		np := r.Size()
		send, recv := r.Alloc(np*per), r.Alloc(np*per)
		fillBlocks(r, send.Bytes(), per)
		q := ops.Ialltoall(0, send.Addr(), recv.Addr(), per)
		for !ops.Test(q) {
			r.Compute(5 * sim.Microsecond)
		}
		checkBlocks(t, r, recv.Bytes(), per)
	})
}

func TestOffloadIbcastSegmentsCorrectly(t *testing.T) {
	// Payload large enough to split into multiple ring segments.
	const size = 1 << 20
	for _, root := range []int{0, 2} {
		root := root
		t.Run(fmt.Sprint("root", root), func(t *testing.T) {
			launch(t, 4, 1, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
				ops := NewOffloadOps("proposed", r, h)
				ops.SegmentSize = 128 << 10
				buf := r.Alloc(size)
				if r.RankID() == root {
					for i := range buf.Bytes() {
						buf.Bytes()[i] = byte(i * 13)
					}
				}
				q := ops.Ibcast(1, buf.Addr(), size, root)
				r.Compute(100 * sim.Microsecond)
				ops.Wait(q)
				for i := 0; i < size; i += 4099 {
					if buf.Bytes()[i] != byte(i*13) {
						t.Errorf("rank %d byte %d wrong", r.RankID(), i)
						return
					}
				}
			})
		})
	}
}

func TestOffloadIbcastMaxSegmentsBoundsEntries(t *testing.T) {
	const size = 64 << 20 // would be 256 segments at 256 KiB
	launch(t, 2, 1, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		ops := NewOffloadOps("proposed", r, h)
		q := ops.Ibcast(0, r.Alloc(size).Addr(), size, 0)
		ops.Wait(q)
		g := q.(*offloadReq).g
		if n := len(g.Ops()); n > 3*ops.MaxSegments {
			t.Errorf("rank %d: %d group entries, want <= %d", r.RankID(), n, 3*ops.MaxSegments)
		}
	})
}

func TestOffloadP2PIntraNodeFallsBackToMPI(t *testing.T) {
	const size = 64 << 10
	launch(t, 1, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		p2p := NewOffloadP2P("proposed", r, h)
		buf := r.Alloc(size)
		if r.RankID() == 0 {
			for i := range buf.Bytes() {
				buf.Bytes()[i] = byte(i)
			}
			q := p2p.Isend(buf.Addr(), size, 1, 0)
			if _, ok := q.(*mpi.Request); !ok {
				t.Errorf("intra-node send should be an MPI request, got %T", q)
			}
			p2p.WaitAll([]Request{q})
		} else {
			q := p2p.Irecv(buf.Addr(), size, 0, 0)
			p2p.WaitAll([]Request{q})
			if buf.Bytes()[100] != 100 {
				t.Error("payload wrong")
			}
		}
	})
}

func TestOffloadP2PInterNodeUsesFramework(t *testing.T) {
	const size = 8 << 10
	launch(t, 2, 1, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		p2p := NewOffloadP2P("proposed", r, h)
		buf := r.Alloc(size)
		if r.RankID() == 0 {
			q := p2p.Isend(buf.Addr(), size, 1, 0)
			if _, ok := q.(*core.OffloadRequest); !ok {
				t.Errorf("inter-node send should be offloaded, got %T", q)
			}
			p2p.WaitAll([]Request{q})
		} else {
			p2p.WaitAll([]Request{p2p.Irecv(buf.Addr(), size, 0, 0)})
		}
	})
}

func TestMixedWaitAll(t *testing.T) {
	// One intra-node (MPI) and one inter-node (offload) request in a single
	// WaitAll — the stencil's everyday situation.
	const size = 32 << 10
	launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		p2p := NewOffloadP2P("proposed", r, h)
		a, b := r.Alloc(size), r.Alloc(size)
		switch r.RankID() {
		case 0: // node 0; peer 1 intra, peer 2 inter
			for i := range a.Bytes() {
				a.Bytes()[i] = 1
				b.Bytes()[i] = 2
			}
			p2p.WaitAll([]Request{
				p2p.Isend(a.Addr(), size, 1, 0),
				p2p.Isend(b.Addr(), size, 2, 0),
			})
		case 1:
			p2p.WaitAll([]Request{p2p.Irecv(a.Addr(), size, 0, 0)})
			if a.Bytes()[0] != 1 {
				t.Error("intra payload wrong")
			}
		case 2:
			p2p.WaitAll([]Request{p2p.Irecv(b.Addr(), size, 0, 0)})
			if b.Bytes()[0] != 2 {
				t.Error("inter payload wrong")
			}
		}
	})
}

func TestTwoSlotsAreIndependent(t *testing.T) {
	const per = 2 << 10
	launch(t, 2, 1, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		ops := NewOffloadOps("proposed", r, h)
		np := r.Size()
		sa, ra := r.Alloc(np*per), r.Alloc(np*per)
		sb, rb := r.Alloc(np*per), r.Alloc(np*per)
		fillBlocks(r, sa.Bytes(), per)
		for i := range sb.Bytes() {
			sb.Bytes()[i] = 0xEE
		}
		qa := ops.Ialltoall(0, sa.Addr(), ra.Addr(), per)
		qb := ops.Ialltoall(1, sb.Addr(), rb.Addr(), per)
		ops.Wait(qb)
		ops.Wait(qa)
		checkBlocks(t, r, ra.Bytes(), per)
		if !bytes.Equal(rb.Bytes()[:per], bytes.Repeat([]byte{0xEE}, per)) {
			t.Error("slot-1 payload mixed up")
		}
	})
}

func TestHostOpsNames(t *testing.T) {
	cl := cluster.New(cluster.DefaultConfig(1, 1))
	w := mpi.NewWorld(cl, mpi.DefaultConfig())
	o := NewHostOps("intelmpi", w.Rank(0))
	if o.Name() != "intelmpi" {
		t.Fatal("name wrong")
	}
	p := NewHostP2P("x", w.Rank(0))
	if p.Name() != "x" {
		t.Fatal("p2p name wrong")
	}
}

func TestIallgatherBothBackends(t *testing.T) {
	const per = 4 << 10
	launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		np := r.Size()
		for _, ops := range []Ops{NewHostOps("host", r), NewOffloadOps("offload", r, h)} {
			send, recv := r.Alloc(per), r.Alloc(np*per)
			for i := range send.Bytes() {
				send.Bytes()[i] = byte(r.RankID()*50 + i)
			}
			q := ops.Iallgather(2, send.Addr(), recv.Addr(), per)
			ops.Wait(q)
			for src := 0; src < np; src++ {
				for i := 0; i < per; i += 997 {
					if recv.Bytes()[src*per+i] != byte(src*50+i) {
						t.Errorf("%s: rank %d block %d byte %d wrong", ops.Name(), r.RankID(), src, i)
						return
					}
				}
			}
			r.Barrier()
		}
	})
}

// The world-scoped Ialltoall of both backends is the communicator-scoped one
// over the world communicator: an explicit communicator of every rank in
// rank order finishes each rank at the same virtual time with the same
// payload, on the host library and through IalltoallOn on the proxies.
func TestWorldIalltoallIsCommIalltoall(t *testing.T) {
	const np, per, iters = 4, 4 << 10, 3
	all := []int{0, 1, 2, 3}
	for _, backend := range []string{"host", "offload"} {
		measure := func(explicit bool) (ends [np]sim.Time, data [np][]byte) {
			launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
				host, off := NewHostOps("intelmpi", r), NewOffloadOps("proposed", r, h)
				var c *mpi.Comm
				if explicit {
					c = r.NewComm(all)
				}
				send, recv := r.Alloc(np*per), r.Alloc(np*per)
				fillBlocks(r, send.Bytes(), per)
				r.Compute(sim.Time(r.RankID()) * sim.Microsecond) // skewed entry
				// Calls after the first replay through the group cache.
				for it := 0; it < iters; it++ {
					switch {
					case backend == "host" && !explicit:
						host.Wait(host.Ialltoall(0, send.Addr(), recv.Addr(), per))
					case backend == "host":
						r.WaitColl(c.Ialltoall(send.Addr(), recv.Addr(), per))
					case !explicit:
						off.Wait(off.Ialltoall(0, send.Addr(), recv.Addr(), per))
					default:
						off.Wait(off.IalltoallOn(c, 0, send.Addr(), recv.Addr(), per))
					}
				}
				checkBlocks(t, r, recv.Bytes(), per)
				data[r.RankID()] = append([]byte(nil), recv.Bytes()...)
				ends[r.RankID()] = r.Now()
			})
			return ends, data
		}
		wantEnds, wantData := measure(false)
		gotEnds, gotData := measure(true)
		if gotEnds != wantEnds {
			t.Errorf("%s: explicit all-ranks comm ends %v, world call ends %v", backend, gotEnds, wantEnds)
		}
		if !reflect.DeepEqual(gotData, wantData) {
			t.Errorf("%s: explicit all-ranks comm and world call left different payloads", backend)
		}
	}
}
