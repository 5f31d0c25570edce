// Package stencil implements the in-house 3D-Stencil overlap benchmark of
// Section VIII-A: a near-neighbour halo exchange (up to 6 neighbours in a
// 3D process grid) posted with nonblocking point-to-point operations and
// overlapped with dummy compute, measured OMB-style.
//
// With the Basic-primitive backend, inter-node faces are progressed by DPU
// proxies while intra-node faces fall back to host MPI — which is why the
// offloaded overlap plateaus near 78% rather than 100% (the paper makes the
// same observation).
package stencil

import (
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Result summarizes one stencil run.
type Result struct {
	Scheme  string
	N       int // global cube edge
	Nodes   int
	PPN     int
	Iters   int
	Pure    sim.Time // halo exchange alone, per iteration (max over ranks)
	Compute sim.Time // injected compute per iteration
	Overall sim.Time // exchange + compute overlapped, per iteration
	Overlap float64  // percent, OMB formula
}

// Grid3 is the 3D process-grid decomposition of np ranks.
type Grid3 struct {
	PX, PY, PZ int
}

// Decompose3 factors np into three near-equal factors (largest first).
func Decompose3(np int) Grid3 {
	best := Grid3{np, 1, 1}
	bestScore := score3(best)
	for px := 1; px <= np; px++ {
		if np%px != 0 {
			continue
		}
		rem := np / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			g := Grid3{px, py, rem / py}
			if s := score3(g); s < bestScore {
				best, bestScore = g, s
			}
		}
	}
	return best
}

// score3 prefers cubic grids (minimal surface).
func score3(g Grid3) int {
	max := g.PX
	if g.PY > max {
		max = g.PY
	}
	if g.PZ > max {
		max = g.PZ
	}
	min := g.PX
	if g.PY < min {
		min = g.PY
	}
	if g.PZ < min {
		min = g.PZ
	}
	return max - min
}

// Coords returns the rank's (x,y,z) position in the grid.
func (g Grid3) Coords(rank int) (x, y, z int) {
	x = rank % g.PX
	y = (rank / g.PX) % g.PY
	z = rank / (g.PX * g.PY)
	return
}

// RankAt is the inverse of Coords.
func (g Grid3) RankAt(x, y, z int) int {
	return x + y*g.PX + z*g.PX*g.PY
}

// neighbours lists the rank's face neighbours (at most 6, non-periodic).
func (g Grid3) neighbours(rank int) []int {
	x, y, z := g.Coords(rank)
	var out []int
	if x > 0 {
		out = append(out, g.RankAt(x-1, y, z))
	}
	if x < g.PX-1 {
		out = append(out, g.RankAt(x+1, y, z))
	}
	if y > 0 {
		out = append(out, g.RankAt(x, y-1, z))
	}
	if y < g.PY-1 {
		out = append(out, g.RankAt(x, y+1, z))
	}
	if z > 0 {
		out = append(out, g.RankAt(x, y, z-1))
	}
	if z < g.PZ-1 {
		out = append(out, g.RankAt(x, y, z+1))
	}
	return out
}

// faceBytes returns the halo face size for each dimension pair given the
// global edge N and the grid (8-byte cells, one-cell-deep halo).
func faceBytes(n int, g Grid3) [3]int {
	lx, ly, lz := n/g.PX, n/g.PY, n/g.PZ
	return [3]int{ly * lz * 8, lx * lz * 8, lx * ly * 8}
}

// dimOf classifies a neighbour offset into its dimension (0=x, 1=y, 2=z).
func dimOf(g Grid3, a, b int) int {
	ax, ay, _ := g.Coords(a)
	bx, by, _ := g.Coords(b)
	switch {
	case ax != bx:
		return 0
	case ay != by:
		return 1
	default:
		return 2
	}
}

// Run executes the benchmark on a freshly built environment: warmup+iters
// halo exchanges to measure the pure exchange time, then the same number
// overlapped with compute equal to the pure time (OMB methodology).
func Run(opt bench.Options, n, warmup, iters int) Result {
	e := bench.Build(opt)
	np := e.Cl.Cfg.NP()
	g := Decompose3(np)
	fb := faceBytes(n, g)

	pure := make([]sim.Time, np)
	overall := make([]sim.Time, np)

	e.Launch(func(r *mpi.Rank, _ coll.Ops, p2p coll.P2P) {
		me := r.RankID()
		nbrs := g.neighbours(me)
		send := make([]*mem.Buffer, len(nbrs))
		recv := make([]*mem.Buffer, len(nbrs))
		for i, nb := range nbrs {
			size := fb[dimOf(g, me, nb)]
			send[i] = r.Alloc(size)
			recv[i] = r.Alloc(size)
		}
		// One request slice serves every exchange. WaitAll releases the
		// requests, so wait clears it: no dead handle stays reachable.
		reqs := make([]coll.Request, 0, 2*len(nbrs))
		post := func() {
			for i, nb := range nbrs {
				size := fb[dimOf(g, me, nb)]
				reqs = append(reqs, p2p.Irecv(recv[i].Addr(), size, nb, 7))
			}
			for i, nb := range nbrs {
				size := fb[dimOf(g, me, nb)]
				reqs = append(reqs, p2p.Isend(send[i].Addr(), size, nb, 7))
			}
		}
		wait := func() {
			p2p.WaitAll(reqs)
			clear(reqs)
			reqs = reqs[:0]
		}

		for it := 0; it < warmup; it++ {
			post()
			wait()
			r.Barrier()
		}
		var acc sim.Time
		for it := 0; it < iters; it++ {
			t0 := r.Now()
			post()
			wait()
			acc += r.Now() - t0
			r.Barrier()
		}
		pure[me] = acc / sim.Time(iters)

		compute := pure[me]
		acc = 0
		for it := 0; it < iters; it++ {
			t0 := r.Now()
			post()
			r.Compute(compute)
			wait()
			acc += r.Now() - t0
			r.Barrier()
		}
		overall[me] = acc / sim.Time(iters)
	})

	res := Result{Scheme: opt.Scheme, N: n, Nodes: opt.Nodes, PPN: opt.PPN, Iters: iters}
	for i := 0; i < np; i++ {
		if pure[i] > res.Pure {
			res.Pure = pure[i]
		}
		if overall[i] > res.Overall {
			res.Overall = overall[i]
		}
	}
	res.Compute = res.Pure
	res.Overlap = bench.OverlapPct(res.Pure, res.Compute, res.Overall)
	return res
}
