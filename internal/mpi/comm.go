package mpi

import "fmt"

// Comm is a sub-communicator: an ordered subset of world ranks. Like
// MPI_Comm_split, creation is collective — every member must construct the
// communicator with the identical member list and in the same creation
// order (the creation index scopes the communicator's tag space; same-index
// communicators must have disjoint members, which Split guarantees).
//
// Collective operations are methods on Comm; the Rank-level collectives are
// the same methods called on the world communicator (Rank.Comm).
type Comm struct {
	r       *Rank
	members []int // world ranks, in comm-rank order; nil = the world (identity)
	myIdx   int   // this rank's comm rank
	tagBase int
	seq     int
}

// commTagStride separates tag spaces of distinct communicators.
const commTagStride = 1 << 24

// Comm returns the world communicator for this rank. It maps ranks by
// identity and keeps no member list (np ints on each of np ranks otherwise).
func (r *Rank) Comm() *Comm {
	if r.worldComm == nil {
		r.worldComm = &Comm{r: r, myIdx: r.rank, tagBase: collTagBase}
	}
	return r.worldComm
}

// NewComm creates a sub-communicator from an explicit member list (world
// ranks, defining the comm-rank order). The calling rank must be a member.
// All members must call NewComm with the same list, as their commIdx'th
// communicator creation.
func (r *Rank) NewComm(members []int) *Comm {
	idx := -1
	for i, m := range members {
		if m == r.rank {
			idx = i
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in communicator %v", r.rank, members))
	}
	r.commSeq++
	return &Comm{
		r:       r,
		members: append([]int(nil), members...),
		myIdx:   idx,
		tagBase: collTagBase + r.commSeq*commTagStride,
	}
}

// Split partitions the world by color (MPI_Comm_split with key = world
// rank): every rank calls Split with its own color; ranks sharing a color
// form one communicator, ordered by world rank. color must be a pure
// function of the world rank (deterministic, no communication needed).
func (r *Rank) Split(color func(worldRank int) int) *Comm {
	mine := color(r.rank)
	var members []int
	for w := 0; w < r.Size(); w++ {
		if color(w) == mine {
			members = append(members, w)
		}
	}
	return r.NewComm(members)
}

// Size returns the communicator size.
func (c *Comm) Size() int {
	if c.members == nil {
		return c.r.Size()
	}
	return len(c.members)
}

// RankID returns this process's rank within the communicator.
func (c *Comm) RankID() int { return c.myIdx }

// World translates a comm rank to a world rank.
func (c *Comm) World(commRank int) int {
	if c.members == nil {
		return commRank
	}
	return c.members[commRank]
}

// nextTag allocates the next collective tag in this communicator's space.
// The world communicator shares the rank's collective sequence so that
// Rank-level and Comm-level world collectives never collide.
func (c *Comm) nextTag() int {
	if c.tagBase == collTagBase {
		return c.r.nextCollTag()
	}
	t := c.tagBase + c.seq
	c.seq++
	return t
}
