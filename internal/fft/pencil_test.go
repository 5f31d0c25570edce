package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// runPencil executes forward+backward on a P1 x P2 grid and verifies the
// round trip, with either host or offloaded transposes.
func runPencil(t *testing.T, scheme string, p1, p2, nx, ny, nz int, offload bool) {
	t.Helper()
	nodes := p1 * p2 / 2
	if nodes < 1 {
		nodes = 1
	}
	ppn := p1 * p2 / nodes
	e := bench.Build(bench.Options{Nodes: nodes, PPN: ppn, Scheme: scheme, Backed: true})
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		var pl *PencilPlan
		var err error
		if offload {
			oo := ops.(*coll.Backend)
			a2a := func(slot int) func(c *mpi.Comm, s, d mem.Addr, per int) {
				return func(c *mpi.Comm, s, d mem.Addr, per int) {
					oo.Wait(oo.IalltoallOn(c, slot, s, d, per))
				}
			}
			pl, err = NewPencilPlanOffload(r, p1, p2, nx, ny, nz, a2a(3), a2a(4))
		} else {
			pl, err = NewPencilPlan(r, p1, p2, nx, ny, nz)
		}
		if err != nil {
			t.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(int64(7 + r.RankID())))
		orig := make([]complex128, len(pl.Data))
		for i := range pl.Data {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			pl.Data[i] = v
			orig[i] = v
		}
		pl.Forward()
		pl.Backward()
		tol := 1e-8 * float64(nx*ny*nz)
		for i := range pl.Data {
			if cmplx.Abs(pl.Data[i]-orig[i]) > tol {
				t.Errorf("rank %d: pencil round trip off at %d: %v vs %v",
					r.RankID(), i, pl.Data[i], orig[i])
				return
			}
		}
	})
}

func TestPencilRoundTripHost(t *testing.T) {
	runPencil(t, baseline.NameIntelMPI, 2, 2, 8, 8, 8, false)
}

func TestPencilRoundTripRectGrid(t *testing.T) {
	runPencil(t, baseline.NameIntelMPI, 2, 4, 8, 16, 16, false)
}

func TestPencilRoundTripOffloaded(t *testing.T) {
	runPencil(t, baseline.NameProposed, 2, 2, 8, 8, 8, true)
}

func TestPencilMatchesSlabSpectrum(t *testing.T) {
	// The pencil and slab decompositions must compute the same transform:
	// compare total spectral energy of the same global input.
	const nx, ny, nz = 8, 8, 8
	energy := func(pencil bool) float64 {
		e := bench.Build(bench.Options{Nodes: 2, PPN: 2, Scheme: baseline.NameIntelMPI, Backed: true})
		total := 0.0
		e.Launch(func(r *mpi.Rank, _ coll.Ops, _ coll.P2P) {
			// Global field: f(x,y,z) = deterministic pseudo-random.
			f := func(x, y, z int) complex128 {
				v := float64((x*131+y*17+z*7)%23) - 11
				return complex(v, -v/3)
			}
			local := 0.0
			if pencil {
				pl, err := NewPencilPlan(r, 2, 2, nx, ny, nz)
				if err != nil {
					t.Error(err)
					return
				}
				// Stage A layout [ly1][lz2][NX].
				for y := 0; y < pl.ly1; y++ {
					for z := 0; z < pl.lz2; z++ {
						for x := 0; x < nx; x++ {
							gy := pl.r1*pl.ly1 + y
							gz := pl.r2*pl.lz2 + z
							pl.Data[(y*pl.lz2+z)*nx+x] = f(x, gy, gz)
						}
					}
				}
				pl.Forward()
				for _, v := range pl.Data {
					local += real(v)*real(v) + imag(v)*imag(v)
				}
			} else {
				ops, _ := coll.Bind("h", r, nil, nil)
				pl, err := NewPlan(r, ops, nx, ny, nz)
				if err != nil {
					t.Error(err)
					return
				}
				for z := 0; z < pl.lz; z++ {
					for y := 0; y < ny; y++ {
						for x := 0; x < nx; x++ {
							gz := r.RankID()*pl.lz + z
							pl.Data[(z*ny+y)*nx+x] = f(x, y, gz)
						}
					}
				}
				pl.Forward()
				for _, v := range pl.Data {
					local += real(v)*real(v) + imag(v)*imag(v)
				}
			}
			total += local
		})
		return total
	}
	slab, pencil := energy(false), energy(true)
	if diff := (slab - pencil) / slab; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("spectral energy differs: slab %v vs pencil %v", slab, pencil)
	}
}
