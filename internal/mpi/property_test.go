package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Property: any random set of matched point-to-point transfers — mixed
// sizes straddling the eager/rendezvous threshold, random tags, random
// inter/intra-node pairs, posted in random order with random compute gaps —
// completes without deadlock and delivers exactly the sent bytes.
func TestPropertyRandomP2PTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(3)
		ppn := 1 + rng.Intn(3)
		cl := cluster.New(cluster.DefaultConfig(nodes, ppn))
		w := NewWorld(cl, DefaultConfig())
		np := cl.Cfg.NP()

		type xfer struct {
			src, dst, tag, size int
			seed                byte
		}
		n := 1 + rng.Intn(12)
		var xfers []xfer
		for i := 0; i < n; i++ {
			size := 1 << (4 + rng.Intn(14)) // 16B .. 128KiB
			xfers = append(xfers, xfer{
				src: rng.Intn(np), dst: rng.Intn(np),
				tag: rng.Intn(3), size: size, seed: byte(rng.Intn(256)),
			})
		}
		// Per-rank op lists in global order (preserves per-pair FIFO).
		gaps := make([]sim.Time, np)
		for i := range gaps {
			gaps[i] = sim.Time(rng.Intn(200)) * sim.Microsecond
		}

		ok := true
		w.Launch(func(r *Rank) {
			me := r.RankID()
			r.Compute(gaps[me])
			var reqs []*Request
			var checks []func() bool
			for i, x := range xfers {
				tag := x.tag*1000 + i // unique per transfer, FIFO irrelevant
				if x.src == me {
					buf := r.Alloc(x.size)
					for j := range buf.Bytes() {
						buf.Bytes()[j] = x.seed + byte(j)
					}
					reqs = append(reqs, r.Isend(buf.Addr(), x.size, x.dst, tag))
				}
				if x.dst == me {
					buf := r.Alloc(x.size)
					reqs = append(reqs, r.Irecv(buf.Addr(), x.size, x.src, tag))
					x := x
					checks = append(checks, func() bool {
						d := buf.Bytes()
						for j := 0; j < x.size; j += 251 {
							if d[j] != x.seed+byte(j) {
								return false
							}
						}
						return true
					})
				}
			}
			r.WaitAll(reqs...)
			for _, c := range checks {
				if !c() {
					ok = false
				}
			}
		})
		cl.K.Run()
		if len(cl.K.Deadlocked) > 0 {
			t.Logf("seed %d: deadlock (%d ranks)", seed, len(cl.K.Deadlocked))
			return false
		}
		if !ok {
			t.Logf("seed %d: payload corrupted", seed)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: self-send transfers of any size round-trip through the local
// path.
func TestPropertySelfSendAllSizes(t *testing.T) {
	f := func(rawSize uint16) bool {
		size := int(rawSize)%(64<<10) + 1
		good := true
		cl := cluster.New(cluster.DefaultConfig(1, 1))
		w := NewWorld(cl, DefaultConfig())
		w.Launch(func(r *Rank) {
			a, b := r.Alloc(size), r.Alloc(size)
			for i := range a.Bytes() {
				a.Bytes()[i] = byte(i * 7)
			}
			sq := r.Isend(a.Addr(), size, 0, 0)
			rq := r.Irecv(b.Addr(), size, 0, 0)
			r.WaitAll(sq, rq)
			for i := range b.Bytes() {
				if b.Bytes()[i] != byte(i*7) {
					good = false
					return
				}
			}
		})
		cl.K.Run()
		return good && len(cl.K.Deadlocked) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: collectives compose — a random sequence of barriers, bcasts,
// ialltoalls, iallgathers and ibcasts executes deadlock-free with correct
// payloads, each call matching its peers' by collective tag sequence.
func TestPropertyCollectiveSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(2)
		ppn := 1 + rng.Intn(3)
		nOps := 1 + rng.Intn(5)
		kinds := make([]int, nOps)
		roots := make([]int, nOps)
		np := nodes * ppn
		for i := range kinds {
			kinds[i] = rng.Intn(5)
			roots[i] = rng.Intn(np)
		}
		const size = 2048
		good := true

		cl := cluster.New(cluster.DefaultConfig(nodes, ppn))
		w := NewWorld(cl, DefaultConfig())
		w.Launch(func(r *Rank) {
			for i, k := range kinds {
				switch k {
				case 0:
					r.Barrier()
				case 1, 4:
					buf := r.Alloc(size)
					if r.RankID() == roots[i] {
						fill(r, buf, byte(i*3+1))
					}
					if k == 1 {
						r.Bcast(buf.Addr(), size, roots[i])
					} else {
						r.WaitColl(r.Ibcast(buf.Addr(), size, roots[i]))
					}
					if buf.Bytes()[0] != byte(i*3+1) {
						good = false
					}
				case 2:
					send, recv := r.Alloc(np*size), r.Alloc(np*size)
					for dst := 0; dst < np; dst++ {
						send.Bytes()[dst*size] = byte(r.RankID()*7 + dst + i)
					}
					r.WaitColl(r.Ialltoall(send.Addr(), recv.Addr(), size))
					for src := 0; src < np; src++ {
						if recv.Bytes()[src*size] != byte(src*7+r.RankID()+i) {
							good = false
						}
					}
				case 3:
					send, recv := r.Alloc(size), r.Alloc(np*size)
					fill(r, send, byte(r.RankID()+i))
					r.WaitColl(r.Iallgather(send.Addr(), recv.Addr(), size))
					for src := 0; src < np; src++ {
						if recv.Bytes()[src*size] != byte(src+i) {
							good = false
						}
					}
				}
			}
		})
		cl.K.Run()
		if len(cl.K.Deadlocked) > 0 {
			t.Logf("seed %d: deadlock, ops %v", seed, kinds)
			return false
		}
		if !good {
			t.Logf("seed %d: wrong payload, ops %v roots %v np %d", seed, kinds, roots, np)
		}
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
