// Pencilfft runs the 2D pencil-decomposed 3D FFT (what real P3DFFT does)
// on a P1 x P2 process grid (1 x P is a slab decomposition), comparing
// host-MPI transposes against transposes offloaded to the DPU proxies
// through communicator-scoped group all-to-alls. The transform is computed
// with real complex128 arithmetic and verified by a forward+backward round
// trip.
package main

import (
	"flag"
	"fmt"
	"math/cmplx"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func main() {
	p1 := flag.Int("p1", 2, "process-grid rows")
	p2 := flag.Int("p2", 2, "process-grid cols")
	n := flag.Int("n", 16, "cube edge (power of two)")
	flag.Parse()

	for _, offload := range []bool{false, true} {
		label := "host transposes    "
		scheme := baseline.NameIntelMPI
		if offload {
			label = "offloaded transposes"
			scheme = baseline.NameProposed
		}
		np := *p1 * *p2
		e := bench.Build(bench.Options{Nodes: np / 2, PPN: 2, Scheme: scheme, Backed: true})
		var worst float64
		var elapsed sim.Time
		e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
			pl, err := fft.NewPencilPlan(r, ops, *p1, *p2, *n, *n, *n)
			if err != nil {
				panic(err)
			}
			rng := rand.New(rand.NewSource(int64(r.RankID())))
			orig := make([]complex128, len(pl.Data))
			for i := range pl.Data {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				pl.Data[i], orig[i] = v, v
			}
			t0 := r.Now()
			pl.Forward()
			pl.Backward()
			if d := r.Now() - t0; d > elapsed {
				elapsed = d
			}
			for i := range pl.Data {
				if e := cmplx.Abs(pl.Data[i] - orig[i]); e > worst {
					worst = e
				}
			}
		})
		fmt.Printf("%s  grid %dx%d, %d^3: fwd+bwd in %v, max round-trip error %.2e\n",
			label, *p1, *p2, *n, elapsed, worst)
	}
}
