package fft

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// The call-site slots of the two transposes: the row and the column
// communicators' all-to-alls replay through separate groups.
const (
	rowSlot = 3
	colSlot = 4
)

// PencilPlan is the 2D ("pencil") decomposition P3DFFT actually uses: the
// np = P1 x P2 process grid assigns each rank NY/P1 x NZ/P2 full x-lines.
// A forward transform is three 1D FFT stages separated by two transposes,
// each an all-to-all *within* one dimension of the grid (row or column
// communicators) — so it scales to rank counts a slab decomposition cannot
// (np may exceed any single dimension). A 1 x P grid is the slab
// decomposition: its row communicators have one member each.
//
// Both transposes run through the rank's collective backend, so the same
// plan exercises host MPI and the offloaded collectives alike.
type PencilPlan struct {
	ops        coll.Ops
	NX, NY, NZ int
	P1, P2     int
	r1, r2     int

	lx, ly1, lz2, ly2 int

	// Data holds the local pencils: [ly1][lz2][NX] in stage A,
	// [lx][lz2][NY] in stage B, [lx][ly2][NZ] in stage C.
	Data []complex128

	ab, bc transpose
}

// transpose is one exchange between two layouts over comm c: a[i] and b[i]
// are the indices, in either layout, of element i of the exchange buffer.
type transpose struct {
	c          *mpi.Comm
	slot, per  int // per: bytes per block
	send, recv *mem.Buffer
	a, b       []int
}

// newTranspose lays out an exchange over c whose block j holds the
// n1 x n2 x n3 elements (u, v, w), in that order, found at a(j, u, v, w) in
// one layout and at b(j, u, v, w) in the other.
func newTranspose(r *mpi.Rank, c *mpi.Comm, slot, n1, n2, n3 int, a, b func(j, u, v, w int) int) transpose {
	t := transpose{c: c, slot: slot, per: n1 * n2 * n3 * 16}
	for j := 0; j < c.Size(); j++ {
		for u := 0; u < n1; u++ {
			for v := 0; v < n2; v++ {
				for w := 0; w < n3; w++ {
					t.a, t.b = append(t.a, a(j, u, v, w)), append(t.b, b(j, u, v, w))
				}
			}
		}
	}
	t.send, t.recv = r.Alloc(c.Size()*t.per), r.Alloc(c.Size()*t.per)
	return t
}

// NewPencilPlan builds the plan on a p1 x p2 grid of r's world, its
// transposes issued through ops.
func NewPencilPlan(r *mpi.Rank, ops coll.Ops, p1, p2, nx, ny, nz int) (*PencilPlan, error) {
	if p1*p2 != r.Size() {
		return nil, fmt.Errorf("fft: grid %dx%d != %d ranks", p1, p2, r.Size())
	}
	for _, c := range []struct {
		dim, p int
		name   string
	}{{nx, p1, "NX%P1"}, {ny, p1, "NY%P1"}, {ny, p2, "NY%P2"}, {nz, p2, "NZ%P2"}} {
		if c.dim%c.p != 0 {
			return nil, fmt.Errorf("fft: %s != 0", c.name)
		}
	}
	for _, d := range []int{nx, ny, nz} {
		if d&(d-1) != 0 {
			return nil, fmt.Errorf("fft: dimension %d not a power of two", d)
		}
	}
	me := r.RankID()
	pl := &PencilPlan{
		ops: ops, NX: nx, NY: ny, NZ: nz, P1: p1, P2: p2,
		r1: me % p1, r2: me / p1,
		lx: nx / p1, ly1: ny / p1, lz2: nz / p2, ly2: ny / p2,
	}
	pl.Data = make([]complex128, pl.ly1*pl.lz2*nx)
	lx, ly1, lz2, ly2 := pl.lx, pl.ly1, pl.lz2, pl.ly2
	// Row exchange (same r2: ranks r2*p1..r2*p1+p1-1), A [ly1][lz2][NX] <->
	// B [lx][lz2][NY]: X becomes distributed, Y full. Blocks are (z, y, x).
	pl.ab = newTranspose(r, r.Split(func(w int) int { return w / p1 }), rowSlot, lz2, ly1, lx,
		func(j, z, y, x int) int { return (y*lz2+z)*nx + j*lx + x },
		func(j, z, y, x int) int { return (x*lz2+z)*ny + j*ly1 + y })
	// Column exchange (same r1), B [lx][lz2][NY] <-> C [lx][ly2][NZ]: Y
	// becomes distributed, Z full. Blocks are (x, z, y).
	pl.bc = newTranspose(r, r.Split(func(w int) int { return w % p1 }), colSlot, lx, lz2, ly2,
		func(k, x, z, y int) int { return (x*lz2+z)*ny + k*ly2 + y },
		func(k, x, z, y int) int { return (x*ly2+y)*nz + k*lz2 + z })
	if !pl.ab.send.Backed() {
		return nil, fmt.Errorf("fft: pencil plan requires payload-backed buffers")
	}
	return pl, nil
}

// Forward computes the 3D forward transform (X, transpose, Y, transpose, Z).
func (pl *PencilPlan) Forward() { pl.transform(false) }

// Backward computes the inverse (Forward∘Backward == identity).
func (pl *PencilPlan) Backward() { pl.transform(true) }

func (pl *PencilPlan) transform(inverse bool) {
	if !inverse {
		pl.fftLines(pl.NX, inverse) // stage A: x-lines
		pl.exchange(&pl.ab, false)
		pl.fftLines(pl.NY, inverse) // stage B: y-lines
		pl.exchange(&pl.bc, false)
		pl.fftLines(pl.NZ, inverse) // stage C: z-lines
	} else {
		pl.fftLines(pl.NZ, inverse)
		pl.exchange(&pl.bc, true)
		pl.fftLines(pl.NY, inverse)
		pl.exchange(&pl.ab, true)
		pl.fftLines(pl.NX, inverse)
	}
}

// fftLines transforms every contiguous line of length n in Data.
func (pl *PencilPlan) fftLines(n int, inverse bool) {
	for off := 0; off+n <= len(pl.Data); off += n {
		Transform(pl.Data[off:off+n], inverse)
	}
}

// exchange runs transpose t on Data, from layout a to layout b (from b to
// a if inverse): pack every block, one all-to-all on t's communicator,
// unpack. Every layout holds the same number of elements.
func (pl *PencilPlan) exchange(t *transpose, inverse bool) {
	from, to := t.a, t.b
	if inverse {
		from, to = to, from
	}
	sb := t.send.Bytes()
	for i, at := range from {
		putC128(sb[i*16:], pl.Data[at])
	}
	pl.ops.Wait(pl.ops.IalltoallOn(t.c, t.slot, t.send.Addr(), t.recv.Addr(), t.per))
	rb := t.recv.Bytes()
	out := make([]complex128, len(pl.Data))
	for i, at := range to {
		out[at] = getC128(rb[i*16:])
	}
	pl.Data = out
}

func putC128(b []byte, v complex128) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(real(v)))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
}

func getC128(b []byte) complex128 {
	return complex(
		math.Float64frombits(binary.LittleEndian.Uint64(b)),
		math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	)
}
