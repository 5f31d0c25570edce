package coll

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
)

// launch builds a cluster+world+framework and runs main with both backends
// available.
func launch(t *testing.T, nodes, ppn int, fcfg core.Config, main func(r *mpi.Rank, h *core.Host)) {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(nodes, ppn))
	w := mpi.NewWorld(cl)
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

// bind is the backend Bind gives a rank with host handle h (nil: none) and
// no engine.
func bind(name string, r *mpi.Rank, h *core.Host) *Backend {
	ops, _ := Bind(name, r, h, nil)
	return ops.(*Backend)
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
		ops := bind("proposed", r, h)
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
		ops := bind("intelmpi", r, nil)
		np := r.Size()
		send, recv := r.Alloc(np*per), r.Alloc(np*per)
		fillBlocks(r, send.Bytes(), per)
		// Untraced and engine-free, the host path hands out the library's
		// own request, which the rank can poll.
		q := ops.Ialltoall(0, send.Addr(), recv.Addr(), per)
		for !r.TestColl(q.(*mpi.CollRequest)) {
			r.Compute(5 * sim.Microsecond)
		}
		checkBlocks(t, r, recv.Bytes(), per)
	})
}

func TestOffloadIbcastSegmentsCorrectly(t *testing.T) {
	// Payload large enough to split into four ring segments.
	const size = 1 << 20
	for _, root := range []int{0, 2} {
		root := root
		t.Run(fmt.Sprint("root", root), func(t *testing.T) {
			launch(t, 4, 1, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
				ops := bind("proposed", r, h)
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
		ops := bind("proposed", r, h)
		q := ops.Ibcast(0, r.Alloc(size).Addr(), size, 0)
		g := q.(*call).g
		ops.Wait(q)
		if n := len(g.Ops()); n > 3*maxSegments {
			t.Errorf("rank %d: %d group entries, want <= %d", r.RankID(), n, 3*maxSegments)
		}
	})
}

func TestOffloadP2PIntraNodeFallsBackToMPI(t *testing.T) {
	const size = 64 << 10
	launch(t, 1, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		_, p2p := Bind("proposed", r, h, nil)
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
		_, p2p := Bind("proposed", r, h, nil)
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
		_, p2p := Bind("proposed", r, h, nil)
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

// A mixed WaitAll releases every handle it completes exactly once, MPI and
// offload alike. Over rounds in which every rank of a 2×2 proposed system
// exchanges a message with every other rank (its node-local peer over MPI,
// the other node over the framework), no handle is handed out while a rank
// that holds it has yet to enter its WaitAll (a handle released twice comes
// back twice), and each kind's handles are reused: fewer distinct ones than
// were handed out.
func TestMixedWaitAllReleasesEachOnce(t *testing.T) {
	const size, rounds = 4 << 10, 4
	kindOf := func(q Request) int {
		if _, ok := q.(*mpi.Request); ok {
			return 0
		}
		return 1
	}
	owner := map[Request]int{} // held handles, by rank
	var waiting [4]bool        // ranks inside WaitAll
	var handed [2]int          // by kind: *mpi.Request, *core.OffloadRequest
	seen := [2]map[Request]bool{{}, {}}
	launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		_, p2p := Bind("proposed", r, h, nil)
		me, np := r.RankID(), r.Size()
		send, recv := r.Alloc(np*size), r.Alloc(np*size)
		for it := 0; it < rounds; it++ {
			var qs []Request
			track := func(q Request) {
				if o, ok := owner[q]; ok && !waiting[o] {
					t.Errorf("round %d: rank %d was handed a %T that rank %d holds", it, me, q, o)
				}
				owner[q] = me
				handed[kindOf(q)]++
				seen[kindOf(q)][q] = true
				qs = append(qs, q)
			}
			for peer := 0; peer < np; peer++ {
				if peer != me {
					track(p2p.Irecv(recv.Addr()+mem.Addr(peer*size), size, peer, it))
				}
			}
			for peer := 0; peer < np; peer++ {
				if peer != me {
					track(p2p.Isend(send.Addr()+mem.Addr(peer*size), size, peer, it))
				}
			}
			waiting[me] = true
			p2p.WaitAll(qs)
			waiting[me] = false
			for _, q := range qs {
				if owner[q] == me {
					delete(owner, q)
				}
			}
		}
	})
	for k, name := range []string{"MPI", "offload"} {
		if n := len(seen[k]); n == 0 || n >= handed[k] {
			t.Errorf("%d distinct %s handles for %d handed out, want fewer: released handles are reused", n, name, handed[k])
		}
	}
}

func TestTwoSlotsAreIndependent(t *testing.T) {
	const per = 2 << 10
	launch(t, 2, 1, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		ops := bind("proposed", r, h)
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
	w := mpi.NewWorld(cl)
	o, p := Bind("intelmpi", w.Rank(0), nil, nil)
	if o.(*Backend).h != nil || o.Name() != "intelmpi" {
		t.Fatalf("Bind with no handle: %T named %q, want the host backend", o, o.Name())
	}
	if p.Name() != "intelmpi" {
		t.Fatal("p2p name wrong")
	}
}

func TestIallgatherBothBackends(t *testing.T) {
	const per = 4 << 10
	launch(t, 2, 2, core.DefaultConfig(), func(r *mpi.Rank, h *core.Host) {
		np := r.Size()
		for _, ops := range []Ops{bind("host", r, nil), bind("offload", r, h)} {
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
				host, off := bind("intelmpi", r, nil), bind("proposed", r, h)
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

// onePath is a policy that always picks the same path.
type onePath datapath.Kind

func (k onePath) Name() string { return "one-" + datapath.Kind(k).String() }

func (k onePath) Decide(policy.Request) policy.Decision {
	return policy.Decision{Path: datapath.Kind(k), Reason: "one"}
}

func (onePath) Observe(policy.Request, datapath.Kind, sim.Time) {}

// A fixed-path bundle runs with no engine: binding it must finish every
// rank's Ialltoall and its Isend/Irecv (node-local and inter-node peers) at
// the same virtual times as routing every call through an engine whose
// policy always picks the bundle's path.
func TestBindWithoutEngineMatchesFixedEngine(t *testing.T) {
	const nodes, ppn, per = 2, 4, 8 << 10
	for _, name := range []string{"gvmi", "staged", "bluesmpi"} {
		b, err := baseline.PolicyBundle(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(eng *policy.Engine) (ends [nodes * ppn][2]sim.Time) {
			launch(t, nodes, ppn, b.Core(), func(r *mpi.Rank, h *core.Host) {
				ops, p2p := Bind(name, r, h, eng)
				np, me := r.Size(), r.RankID()
				send, recv := r.Alloc(np*per), r.Alloc(np*per)
				for it := 0; it < 3; it++ {
					ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), per))
				}
				ends[me][0] = r.Now()
				local, remote := me^1, (me+ppn)%np
				p2p.WaitAll([]Request{
					p2p.Irecv(recv.Addr(), per, local, 1),
					p2p.Irecv(recv.Addr()+per, per, remote, 1),
					p2p.Isend(send.Addr(), per, local, 1),
					p2p.Isend(send.Addr()+per, per, remote, 1),
				})
				ends[me][1] = r.Now()
			})
			return ends
		}
		if free, fixed := run(nil), run(policy.NewEngine(onePath(b.Core().Path), nil)); free != fixed {
			t.Errorf("%s: engine-free ends %v, fixed-engine ends %v", name, free, fixed)
		}
	}
}

// Every host-direct collective opens one "coll" root span, whether an
// engine picked host-direct (adaptive, at 4 KiB) or the bundle runs on the
// host with no engine at all: both record the same spans.
func TestHostDirectCollectivesOpenRoots(t *testing.T) {
	const nodes, ppn, per, iters = 2, 2, 4 << 10, 8
	trace := func(scheme string) []span.Span {
		sp := span.New(0)
		sys, err := baseline.Build(baseline.Spec{Nodes: nodes, PPN: ppn, Scheme: scheme, Spans: sp})
		if err != nil {
			t.Fatal(err)
		}
		sys.Worlds[0].Launch(func(r *mpi.Rank) {
			ops, _ := Bind(scheme, r, sys.Host(0, r), sys.Engines[0])
			send, recv := r.Alloc(r.Size()*per), r.Alloc(r.Size()*per)
			for range iters {
				ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), per))
			}
		})
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sp.Spans()
	}
	host, adaptive := trace("hostdirect"), trace("adaptive")
	roots := 0
	for _, s := range host {
		if s.Layer == "coll" && s.Parent == 0 {
			roots++
		}
	}
	if roots != nodes*ppn*iters {
		t.Errorf("hostdirect recorded %d coll roots, want one per rank and call: %d", roots, nodes*ppn*iters)
	}
	if !reflect.DeepEqual(host, adaptive) {
		t.Errorf("hostdirect recorded %d spans, adaptive (host-direct at 4 KiB) %d, or their contents differ", len(host), len(adaptive))
	}
}
