package mpi

import "repro/internal/mem"

// collTagBase separates collective traffic from application tags. Every
// collective call consumes one sequence number; since MPI requires all ranks
// to issue collectives in the same order, equal sequence numbers identify
// the same operation across ranks.
const collTagBase = 1 << 20

func (r *Rank) nextCollTag() int {
	t := collTagBase + r.collSeq
	r.collSeq++
	return t
}

// Barrier blocks until all ranks have entered: the world communicator's
// barrier.
func (r *Rank) Barrier() { r.Comm().Barrier() }

// scratch returns a small reusable scratch allocation.
func (r *Rank) scratch(size int) mem.Addr {
	if r.scratchBuf == nil || r.scratchBuf.Size() < size {
		r.scratchBuf = r.Alloc(size)
	}
	return r.scratchBuf.Addr()
}
