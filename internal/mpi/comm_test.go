package mpi

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestSplitRowsAndColumns(t *testing.T) {
	// 2x3 grid over 6 ranks: rows {0,1,2},{3,4,5}; cols {0,3},{1,4},{2,5}.
	runWorld(t, 6, 1, func(r *Rank) {
		row := r.Split(func(w int) int { return w / 3 })
		col := r.Split(func(w int) int { return w % 3 })
		if row.Size() != 3 || col.Size() != 2 {
			t.Errorf("rank %d: row size %d col size %d", r.RankID(), row.Size(), col.Size())
		}
		if row.World(row.RankID()) != r.RankID() || col.World(col.RankID()) != r.RankID() {
			t.Errorf("rank %d: self translation broken", r.RankID())
		}
	})
}

func TestCommBarrierScopedToMembers(t *testing.T) {
	// Ranks 0..2 barrier among themselves while rank 3 computes for a long
	// time: the sub-barrier must not wait for rank 3.
	times := make([]sim.Time, 4)
	runWorld(t, 4, 1, func(r *Rank) {
		if r.RankID() == 3 {
			r.Compute(50 * sim.Millisecond)
			return
		}
		c := r.NewComm([]int{0, 1, 2})
		r.Compute(sim.Time(r.RankID()) * sim.Microsecond)
		c.Barrier()
		times[r.RankID()] = r.Now()
	})
	for i := 0; i < 3; i++ {
		if times[i] > 10*sim.Millisecond {
			t.Fatalf("rank %d barrier waited for a non-member: %v", i, times[i])
		}
	}
}

func TestCommBcastWithinGroup(t *testing.T) {
	const size = 4096
	runWorld(t, 6, 1, func(r *Rank) {
		row := r.Split(func(w int) int { return w / 3 })
		buf := r.Alloc(size)
		// comm-rank 1 of each row is the root.
		if row.RankID() == 1 {
			fill(r, buf, byte(100+row.World(1)))
		}
		row.Bcast(buf.Addr(), size, 1)
		want := byte(100 + row.World(1))
		if buf.Bytes()[0] != want {
			t.Errorf("rank %d got %d, want %d", r.RankID(), buf.Bytes()[0], want)
		}
	})
}

func TestCommAlltoallRowsConcurrently(t *testing.T) {
	// Two row communicators run personalized exchanges at the same time;
	// payloads must not cross rows. A world exchange between two row ones
	// finds the request slab the row call handed back too small and takes a
	// new one; the second row call reuses the world call's larger slab.
	const per = 2048
	runWorld(t, 6, 1, func(r *Rank) {
		row := r.Split(func(w int) int { return w / 3 })
		for k, c := range []*Comm{row, r.Comm(), row} {
			np := c.Size()
			send, recv := r.Alloc(np*per), r.Alloc(np*per)
			for dst := 0; dst < np; dst++ {
				blk := send.Bytes()[dst*per : (dst+1)*per]
				for i := range blk {
					blk[i] = byte(r.RankID()*17 + c.World(dst)*5 + k + i)
				}
			}
			c.Alltoall(send.Addr(), recv.Addr(), per)
			for src := 0; src < np; src++ {
				blk := recv.Bytes()[src*per : (src+1)*per]
				for i := 0; i < per; i += 509 {
					want := byte(c.World(src)*17 + r.RankID()*5 + k + i)
					if blk[i] != want {
						t.Errorf("rank %d, exchange %d: block from comm-rank %d wrong", r.RankID(), k, src)
						return
					}
				}
			}
		}
	})
}

func TestCommTagIsolationFromWorld(t *testing.T) {
	// A world Bcast and a sub-comm Bcast in flight around the same time
	// must not steal each other's messages.
	const size = 1024
	runWorld(t, 4, 1, func(r *Rank) {
		wbuf, sbuf := r.Alloc(size), r.Alloc(size)
		if r.RankID() == 0 {
			fill(r, wbuf, 7)
			fill(r, sbuf, 9)
		}
		if r.RankID() < 2 {
			sub := r.NewComm([]int{0, 1})
			sub.Bcast(sbuf.Addr(), size, 0)
		}
		r.Bcast(wbuf.Addr(), size, 0)
		if wbuf.Bytes()[0] != 7 {
			t.Errorf("rank %d world payload %d", r.RankID(), wbuf.Bytes()[0])
		}
		if r.RankID() < 2 && sbuf.Bytes()[0] != 9 {
			t.Errorf("rank %d sub payload %d", r.RankID(), sbuf.Bytes()[0])
		}
	})
}

func TestNewCommRequiresMembership(t *testing.T) {
	runWorld(t, 2, 1, func(r *Rank) {
		if r.RankID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-member")
			}
		}()
		r.NewComm([]int{1})
	})
}

func TestWorldCommMatchesRank(t *testing.T) {
	runWorld(t, 3, 1, func(r *Rank) {
		c := r.Comm()
		if c.Size() != 3 || c.RankID() != r.RankID() || c.World(2) != 2 {
			t.Errorf("world comm wrong: %d/%d", c.Size(), c.RankID())
		}
		if r.Comm() != c {
			t.Error("world comm not cached")
		}
	})

	// The Rank-level collectives are the world communicator's. A communicator
	// built over every rank in rank order — an explicit member list and a tag
	// space of its own — must therefore finish each rank at the same virtual
	// time with the same payload as the Rank-level call.
	const np, size, per = 6, 4096, 2048
	all := []int{0, 1, 2, 3, 4, 5}
	for _, op := range []struct {
		name string
		run  func(r *Rank, c *Comm) []byte // c == nil: the Rank-level call
	}{
		{"barrier", func(r *Rank, c *Comm) []byte {
			if c == nil {
				r.Barrier()
			} else {
				c.Barrier()
			}
			return nil
		}},
		{"bcast", func(r *Rank, c *Comm) []byte {
			buf := r.Alloc(size)
			if r.RankID() == 2 {
				fill(r, buf, 9)
			}
			if c == nil {
				r.Bcast(buf.Addr(), size, 2)
			} else {
				c.Bcast(buf.Addr(), size, 2)
			}
			return buf.Bytes()
		}},
		{"ialltoall", func(r *Rank, c *Comm) []byte {
			send, recv := r.Alloc(np*per), r.Alloc(np*per)
			fill(r, send, byte(r.RankID()*17))
			var q *CollRequest
			if c == nil {
				q = r.Ialltoall(send.Addr(), recv.Addr(), per)
			} else {
				q = c.Ialltoall(send.Addr(), recv.Addr(), per)
			}
			r.WaitColl(q)
			return recv.Bytes()
		}},
	} {
		measure := func(explicit bool) (ends [np]sim.Time, data [np][]byte) {
			runWorld(t, 3, 2, func(r *Rank) {
				var c *Comm
				if explicit {
					c = r.NewComm(all)
				}
				r.Compute(sim.Time(r.RankID()) * sim.Microsecond) // skewed entry
				data[r.RankID()] = append([]byte(nil), op.run(r, c)...)
				ends[r.RankID()] = r.Now()
			})
			return ends, data
		}
		wantEnds, wantData := measure(false)
		gotEnds, gotData := measure(true)
		if gotEnds != wantEnds {
			t.Errorf("%s: explicit all-ranks comm ends %v, Rank-level call ends %v", op.name, gotEnds, wantEnds)
		}
		if !reflect.DeepEqual(gotData, wantData) {
			t.Errorf("%s: explicit all-ranks comm and Rank-level call left different payloads", op.name)
		}
	}
}
