package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/mpi"
)

// grids are the process grids each scheme runs: slab-shaped either way
// (one side's communicators have a single member), square and rectangular.
var grids = [][2]int{{1, 4}, {4, 1}, {2, 2}, {2, 4}}

// field is a deterministic global input f(x, y, z).
func field(x, y, z int) complex128 {
	v := float64((x*131+y*17+z*7)%23) - 11
	return complex(v, -v/3)
}

// serial3D is the reference: the 3D transform of f over an nx x ny x nz
// cube, 1D transforms along X, then Y, then Z, in layout [z][y][x].
func serial3D(f func(x, y, z int) complex128, nx, ny, nz int) []complex128 {
	g := make([]complex128, nx*ny*nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				g[(z*ny+y)*nx+x] = f(x, y, z)
			}
		}
	}
	// line transforms the n elements at(0), ..., at(n-1) of g.
	line := func(n int, at func(i int) int) {
		l := make([]complex128, n)
		for i := range l {
			l[i] = g[at(i)]
		}
		Transform(l, false)
		for i := range l {
			g[at(i)] = l[i]
		}
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			line(nx, func(i int) int { return (z*ny+y)*nx + i })
		}
	}
	for z := 0; z < nz; z++ {
		for x := 0; x < nx; x++ {
			line(ny, func(i int) int { return (z*ny+i)*nx + x })
		}
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			line(nz, func(i int) int { return (i*ny+y)*nx + x })
		}
	}
	return g
}

// runPencil runs fn on every rank of a p1 x p2 grid (two ranks a node)
// under scheme, with a plan for an nx x ny x nz cube whose stage-A data
// holds f.
func runPencil(t *testing.T, scheme string, p1, p2, nx, ny, nz int,
	f func(x, y, z int) complex128, fn func(r *mpi.Rank, pl *PencilPlan)) {
	t.Helper()
	np := p1 * p2
	e := bench.Build(bench.Options{Nodes: max(np/2, 1), PPN: min(np, 2), Scheme: scheme, Backed: true})
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		pl, err := NewPencilPlan(r, ops, p1, p2, nx, ny, nz)
		if err != nil {
			t.Error(err)
			return
		}
		for y := 0; y < pl.ly1; y++ {
			for z := 0; z < pl.lz2; z++ {
				for x := 0; x < nx; x++ {
					pl.Data[(y*pl.lz2+z)*nx+x] = f(x, pl.r1*pl.ly1+y, pl.r2*pl.lz2+z)
				}
			}
		}
		fn(r, pl)
	})
}

// checkPencil transforms field forward on a p1 x p2 grid, checks every
// coefficient against the serial transform, and checks that the backward
// transform restores the input.
func checkPencil(t *testing.T, scheme string, p1, p2, nx, ny, nz int) {
	t.Helper()
	want := serial3D(field, nx, ny, nz)
	tol := 1e-8 * float64(nx*ny*nz)
	runPencil(t, scheme, p1, p2, nx, ny, nz, field, func(r *mpi.Rank, pl *PencilPlan) {
		orig := append([]complex128(nil), pl.Data...)
		pl.Forward()
		// Stage C layout [lx][ly2][NZ].
		for x := 0; x < pl.lx; x++ {
			for y := 0; y < pl.ly2; y++ {
				gx, gy := pl.r1*pl.lx+x, pl.r2*pl.ly2+y
				for z := 0; z < nz; z++ {
					got, w := pl.Data[(x*pl.ly2+y)*nz+z], want[(z*ny+gy)*nx+gx]
					if cmplx.Abs(got-w) > tol {
						t.Errorf("rank %d: coefficient (%d,%d,%d) = %v, serial %v", r.RankID(), gx, gy, z, got, w)
						return
					}
				}
			}
		}
		pl.Backward()
		for i := range pl.Data {
			if cmplx.Abs(pl.Data[i]-orig[i]) > tol {
				t.Errorf("rank %d: round trip off at %d: %v vs %v", r.RankID(), i, pl.Data[i], orig[i])
				return
			}
		}
	})
}

// testGrids runs checkPencil on every grid of grids.
func testGrids(t *testing.T, scheme string, nx, ny, nz int) {
	for _, g := range grids {
		t.Run(fmt.Sprintf("%dx%d", g[0], g[1]), func(t *testing.T) {
			checkPencil(t, scheme, g[0], g[1], nx, ny, nz)
		})
	}
}

func TestDistributedRoundTripHost(t *testing.T) { testGrids(t, baseline.NameIntelMPI, 8, 8, 8) }

func TestDistributedRoundTripProposed(t *testing.T) { testGrids(t, baseline.NameProposed, 8, 8, 8) }

func TestDistributedRoundTripBluesMPI(t *testing.T) { testGrids(t, baseline.NameBluesMPI, 8, 8, 8) }

// A cube with three different edges catches a transpose that confuses two
// axes, which a cube with equal edges cannot.
func TestPencilRoundTripRectGrid(t *testing.T) { testGrids(t, baseline.NameIntelMPI, 4, 8, 16) }

// The distributed transform of a sine along Z on a 1 x P (slab) grid has
// its spectrum at (0, 0, ±3) only.
func TestDistributedSineSpectrum(t *testing.T) {
	const nx, ny, nz = 8, 8, 16
	sine := func(_, _, z int) complex128 { return complex(math.Sin(2*math.Pi*3*float64(z)/nz), 0) }
	runPencil(t, baseline.NameProposed, 1, 4, nx, ny, nz, sine, func(_ *mpi.Rank, pl *PencilPlan) {
		pl.Forward()
		// Stage C layout [lx][ly2][NZ]; ky = 0 lives on r2 = 0.
		for x := 0; x < pl.lx; x++ {
			for y := 0; y < pl.ly2; y++ {
				gy := pl.r2*pl.ly2 + y
				for z := 0; z < nz; z++ {
					mag := cmplx.Abs(pl.Data[(x*pl.ly2+y)*nz+z])
					peak := x == 0 && gy == 0 && (z == 3 || z == nz-3)
					if peak && mag < 1 {
						t.Errorf("missing peak at (%d,%d,%d): %v", x, gy, z, mag)
					}
					if !peak && mag > 1e-6 {
						t.Errorf("spurious energy at (%d,%d,%d): %v", x, gy, z, mag)
					}
				}
			}
		}
	})
}
