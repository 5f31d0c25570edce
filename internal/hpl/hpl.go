// Package hpl implements the High-Performance-Linpack-like workload of
// Section VIII-D: a right-looking blocked LU factorization whose panel
// broadcast is overlapped with the trailing-matrix update through a
// look-ahead, in four library variants:
//
//   - Ring1: the stock HPL-1ring algorithm — a ring broadcast written with
//     MPI_Isend/Irecv and progressed by polling MPI_Test between compute
//     chunks (the paper's Listing 1; forwarding is delayed by up to one
//     compute chunk per hop);
//   - HostIbcast: MPI_Ibcast (binomial) progressed the same way
//     ("IntelMPI-Ibcast");
//   - Offload: the framework's ring Ibcast recorded with Group primitives
//     and progressed by DPU proxies — no CPU intervention ("Proposed" with
//     the GVMI mechanism, "BluesMPI" with the staging preset).
//
// The matrix is distributed column-block-cyclically over all ranks (a 1D
// layout; the paper's HPL uses a PxQ grid, but the pattern under study —
// an ordered panel broadcast racing a local update — is one-dimensional
// along the broadcast ring, see DESIGN.md). With payload-backed buffers the
// factorization is performed with real float64 arithmetic and validated
// against a serial reference; figure-scale runs model the compute and move
// size-only panels.
package hpl

import (
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Variant selects the broadcast implementation.
type Variant int

// Broadcast variants.
const (
	Ring1      Variant = iota // MPI point-to-point ring with Test polling
	HostIbcast                // MPI_Ibcast with Test polling
	Offload                   // framework Group-primitive ring on the DPU
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Ring1:
		return "1ring"
	case HostIbcast:
		return "ibcast"
	default:
		return "offload"
	}
}

// Params configures one run.
type Params struct {
	N  int // matrix order
	NB int // block size
	// FlopRate is the modelled per-core DGEMM throughput in flops/ns.
	FlopRate float64
	// PollChunk is the compute granularity between MPI_Test polls for the
	// host variants (Listing 1's do_compute unit).
	PollChunk sim.Time
	// MaxPollsPerUpdate caps the number of poll slices per trailing update
	// (bounds simulation cost for huge problems; the effective chunk is
	// max(PollChunk, update/MaxPollsPerUpdate)).
	MaxPollsPerUpdate int
	// Variant selects the broadcast implementation.
	Variant Variant
}

// DefaultParams returns Broadwell-ish settings: ~40 GFLOP/s per core is
// MKL DGEMM territory on a 3.4 GHz AVX2 part.
func DefaultParams(n, nb int, v Variant) Params {
	return Params{N: n, NB: nb, FlopRate: 40.0, PollChunk: 50 * sim.Microsecond, MaxPollsPerUpdate: 64, Variant: v}
}

// Result summarizes one run.
type Result struct {
	Scheme  string
	Variant Variant
	N, NB   int
	Nodes   int
	PPN     int
	Total   sim.Time
	GFlops  float64 // modelled achieved rate: (2/3 N^3) / Total
}

// rank-local state for the factorization.
type state struct {
	r    *mpi.Rank
	ops  coll.Ops
	par  Params
	np   int
	me   int
	nblk int

	// Real-math mode: local columns (full length N each), indexed by global
	// column; nil entries for remote columns. Nil in modelled mode.
	cols [][]float64

	// Panel exchange buffers (double-buffered for look-ahead).
	panels [2]*mem.Buffer
}

// ownerOf returns the rank owning block k.
func (s *state) ownerOf(k int) int { return k % s.np }

// rowsAt returns the panel height at step k.
func (s *state) rowsAt(k int) int { return s.par.N - k*s.par.NB }

// panelBytes returns the broadcast payload at step k.
func (s *state) panelBytes(k int) int { return s.rowsAt(k) * s.par.NB * 8 }

func (s *state) blockWidth(b int) int {
	w := s.par.N - b*s.par.NB
	if w > s.par.NB {
		w = s.par.NB
	}
	return w
}

// Run executes the benchmark for one scheme/variant on a fresh environment.
func Run(opt bench.Options, par Params) Result {
	e := bench.Build(opt)
	np := e.Cl.Cfg.NP()
	totals := make([]sim.Time, np)

	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		s := newState(r, ops, par)
		r.Barrier()
		t0 := r.Now()
		s.factorize()
		r.Barrier()
		totals[r.RankID()] = r.Now() - t0
	})

	res := Result{
		Scheme: opt.Scheme, Variant: par.Variant, N: par.N, NB: par.NB,
		Nodes: opt.Nodes, PPN: opt.PPN,
	}
	for _, t := range totals {
		if t > res.Total {
			res.Total = t
		}
	}
	if res.Total > 0 {
		res.GFlops = 2.0 / 3.0 * float64(par.N) * float64(par.N) * float64(par.N) / float64(res.Total)
	}
	return res
}

func newState(r *mpi.Rank, ops coll.Ops, par Params) *state {
	if par.N%par.NB != 0 {
		panic(fmt.Sprintf("hpl: N=%d not a multiple of NB=%d", par.N, par.NB))
	}
	s := &state{
		r: r, ops: ops, par: par,
		np: r.Size(), me: r.RankID(),
		nblk: par.N / par.NB,
	}
	cap := par.N * par.NB * 8
	s.panels[0] = r.Alloc(cap)
	s.panels[1] = r.Alloc(cap)
	if s.panels[0].Backed() {
		s.initMatrix()
	}
	return s
}

// initMatrix builds the deterministic, diagonally dominant test matrix
// (LU without pivoting stays stable): A[i][j] = seed(i,j) + N·[i==j].
func (s *state) initMatrix() {
	n := s.par.N
	s.cols = make([][]float64, n)
	for c := 0; c < n; c++ {
		if s.ownerOf(c/s.par.NB) != s.me {
			continue
		}
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = Entry(n, i, c)
		}
		s.cols[c] = col
	}
}

// Entry is the deterministic test-matrix generator shared with the serial
// reference.
func Entry(n, i, j int) float64 {
	v := math.Sin(float64(i*131+j*7+1)) * 0.5
	if i == j {
		v += float64(n)
	}
	return v
}

// factorize runs the right-looking blocked LU with depth-1 look-ahead:
// while panel k is broadcast, ranks update their trailing columns with
// panel k-1.
func (s *state) factorize() {
	var prev *mem.Buffer // panel k-1 as received
	var prevK = -1
	for k := 0; k < s.nblk; k++ {
		owner := s.ownerOf(k)
		cur := s.panels[k%2]

		// The owner must bring panel k's columns up to date with panel k-1
		// before factoring (the look-ahead's critical-path update).
		if s.me == owner {
			if prevK >= 0 {
				s.updateBlock(prevK, prev, k)
			}
			s.factorPanel(k, cur)
		}

		bc := s.startBcast(k, cur, owner)

		// Overlap: trailing update with panel k-1 races broadcast k.
		if prevK >= 0 {
			s.updateTrailing(prevK, prev, k, bc.poll)
		}
		s.waitBcast(bc)

		prev, prevK = cur, k
	}
}

// compute advances modelled compute time for the given flops.
func (s *state) compute(flops float64) {
	s.r.Compute(sim.Time(flops / s.par.FlopRate))
}

// computePolled advances modelled compute in PollChunk slices, invoking
// poll() between slices (the Listing 1 pattern).
func (s *state) computePolled(flops float64, poll func()) {
	total := sim.Time(flops / s.par.FlopRate)
	chunk := s.par.PollChunk
	if s.par.MaxPollsPerUpdate > 0 {
		if c := total / sim.Time(s.par.MaxPollsPerUpdate); c > chunk {
			chunk = c
		}
	}
	for total > 0 {
		c := chunk
		if poll == nil || c > total {
			c = total
		}
		s.r.Compute(c)
		total -= c
		if poll != nil {
			poll()
		}
	}
}

// factorFlops models the panel factorization cost.
func (s *state) factorFlops(k int) float64 {
	rows := float64(s.rowsAt(k))
	nb := float64(s.par.NB)
	return rows * nb * nb
}

// updateFlops models the trailing update cost for ncols local columns.
func (s *state) updateFlops(k, ncols int) float64 {
	rows := float64(s.rowsAt(k) - s.par.NB) // rows below panel k's diagonal block
	if rows < 0 {
		rows = 0
	}
	nb := float64(s.par.NB)
	c := float64(ncols)
	return c*nb*nb + 2*rows*nb*c // triangular solves + GEMM
}
