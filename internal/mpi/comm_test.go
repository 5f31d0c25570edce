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
			r.WaitColl(c.Ialltoall(send.Addr(), recv.Addr(), per))
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
	// A sub-comm Ialltoall and a world Ialltoall in flight at the same time
	// must not steal each other's messages, even when the two members of
	// the sub-comm start them in opposite orders.
	const per = 1024
	runWorld(t, 4, 1, func(r *Rank) {
		np := r.Size()
		wsend, wrecv := r.Alloc(np*per), r.Alloc(np*per)
		ssend, srecv := r.Alloc(2*per), r.Alloc(2*per)
		for dst := 0; dst < np; dst++ {
			wsend.Bytes()[dst*per] = byte(10*r.RankID() + dst)
		}
		for dst := 0; dst < 2; dst++ {
			ssend.Bytes()[dst*per] = byte(100 + 10*r.RankID() + dst)
		}
		var sub, world *CollRequest
		if r.RankID() == 1 {
			world = r.Ialltoall(wsend.Addr(), wrecv.Addr(), per)
		}
		if r.RankID() < 2 {
			sub = r.NewComm([]int{0, 1}).Ialltoall(ssend.Addr(), srecv.Addr(), per)
		}
		if r.RankID() != 1 {
			world = r.Ialltoall(wsend.Addr(), wrecv.Addr(), per)
		}
		if sub != nil {
			r.WaitColl(sub)
		}
		r.WaitColl(world)
		for src := 0; src < np; src++ {
			if got, want := wrecv.Bytes()[src*per], byte(10*src+r.RankID()); got != want {
				t.Errorf("rank %d world block from %d: %d, want %d", r.RankID(), src, got, want)
			}
		}
		for src := 0; sub != nil && src < 2; src++ {
			if got, want := srecv.Bytes()[src*per], byte(100+10*src+r.RankID()); got != want {
				t.Errorf("rank %d sub block from %d: %d, want %d", r.RankID(), src, got, want)
			}
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
