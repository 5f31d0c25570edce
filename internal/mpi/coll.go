package mpi

import (
	"encoding/binary"
	"math"

	"repro/internal/mem"
)

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

// Bcast broadcasts [addr, addr+size) from root over the world communicator.
func (r *Rank) Bcast(addr mem.Addr, size, root int) { r.Comm().Bcast(addr, size, root) }

// Alltoall performs a personalized all-to-all exchange: per bytes go from
// sendAddr+dst*per on each rank to recvAddr+src*per on every other
// (scatter-destination schedule, all transfers posted up front).
func (r *Rank) Alltoall(sendAddr, recvAddr mem.Addr, per int) {
	req := r.Ialltoall(sendAddr, recvAddr, per)
	r.WaitColl(req)
}

// Allgather gathers per bytes from every rank into recvAddr (ring
// algorithm: np-1 forwarding steps).
func (r *Rank) Allgather(sendAddr, recvAddr mem.Addr, per int) {
	t0 := r.enter()
	defer r.leave(t0)
	np := r.Size()
	tag := r.nextCollTag()
	// Place own contribution.
	self := snapshot(r.site.Space, sendAddr, per)
	r.site.Space.WriteAt(recvAddr+mem.Addr(r.rank*per), self, per)
	if np == 1 {
		return
	}
	right := (r.rank + 1) % np
	left := (r.rank - 1 + np) % np
	for step := 0; step < np-1; step++ {
		blkSend := (r.rank - step + np) % np
		blkRecv := (r.rank - step - 1 + np) % np
		sq := r.Isend(recvAddr+mem.Addr(blkSend*per), per, right, tag)
		rq := r.Irecv(recvAddr+mem.Addr(blkRecv*per), per, left, tag)
		r.waitFor(func() bool { return sq.done && rq.done })
	}
}

// Allreduce sums count float64 values from sendAddr into recvAddr on every
// rank (recursive doubling; for non-power-of-two sizes a preliminary fold
// reduces to the nearest power of two). With size-only buffers the data
// movement is still simulated; only the arithmetic is skipped.
func (r *Rank) Allreduce(sendAddr, recvAddr mem.Addr, count int) {
	t0 := r.enter()
	defer r.leave(t0)
	np := r.Size()
	tag := r.nextCollTag()
	bytes := count * 8

	buf := snapshot(r.site.Space, sendAddr, bytes)
	r.site.Space.WriteAt(recvAddr, buf, bytes)
	if np == 1 {
		return
	}
	tmp := r.Alloc(bytes)

	pof2 := 1
	for pof2*2 <= np {
		pof2 *= 2
	}
	rem := np - pof2
	newRank := -1
	switch {
	case r.rank < 2*rem && r.rank%2 == 0:
		// Fold: send everything to the odd neighbour, drop out.
		r.Send(recvAddr, bytes, r.rank+1, tag)
	case r.rank < 2*rem:
		r.Recv(tmp.Addr(), bytes, r.rank-1, tag)
		r.reduceInto(recvAddr, tmp.Addr(), count)
		newRank = r.rank / 2
	default:
		newRank = r.rank - rem
	}

	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			peerNew := newRank ^ mask
			peer := peerNew + rem
			if peerNew < rem {
				peer = peerNew*2 + 1
			}
			sq := r.Isend(recvAddr, bytes, peer, tag)
			rq := r.Irecv(tmp.Addr(), bytes, peer, tag)
			r.waitFor(func() bool { return sq.done && rq.done })
			r.reduceInto(recvAddr, tmp.Addr(), count)
		}
	}

	// Unfold: odd partners return the result to the folded ranks.
	if r.rank < 2*rem {
		if r.rank%2 != 0 {
			r.Send(recvAddr, bytes, r.rank-1, tag)
		} else {
			r.Recv(recvAddr, bytes, r.rank+1, tag)
		}
	}
}

// reduceInto adds count float64s at src into dst (element-wise), when the
// space is payload-backed.
func (r *Rank) reduceInto(dst, src mem.Addr, count int) {
	d := r.site.Space.ReadAt(dst, count*8)
	s := r.site.Space.ReadAt(src, count*8)
	if d == nil || s == nil {
		return
	}
	for i := 0; i < count; i++ {
		a := math.Float64frombits(binary.LittleEndian.Uint64(d[i*8:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(s[i*8:]))
		binary.LittleEndian.PutUint64(d[i*8:], math.Float64bits(a+b))
	}
	r.site.Space.WriteAt(dst, d, count*8)
}
