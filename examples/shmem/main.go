// Shmem demonstrates the framework's programming-model agnosticism: an
// OpenSHMEM-style one-sided Put/Get API over the same DPU offload
// machinery. Each PE puts a block into its right neighbour's symmetric
// heap and gets one from its left neighbour — all transfers served by the
// proxies while every PE computes.
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/shmem"
	"repro/internal/sim"
)

func main() {
	const (
		nodes   = 2
		ppn     = 2
		n       = 256 << 10
		compute = 1 * sim.Millisecond
	)
	// The paper's Proposed system on bare host sites: the PEs are not MPI
	// ranks.
	sys, err := baseline.Build(baseline.Spec{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed, Backed: true, Bare: true})
	if err != nil {
		panic(err)
	}
	np := len(sys.Sites)
	w := shmem.New(sys.Fw, sys.Sites, 4*n)

	for i := 0; i < np; i++ {
		pe := w.PE(i)
		sys.Cl.K.Spawn(fmt.Sprintf("pe%d", i), func(p *sim.Proc) {
			pe.Bind(p)
			src := pe.Malloc(n)
			inbox := pe.Malloc(n)
			fetched := pe.Malloc(n)

			d := pe.Bytes(src, n)
			for j := range d {
				d[j] = byte(pe.ID())
			}

			right := (pe.ID() + 1) % np
			left := (pe.ID() - 1 + np) % np
			pe.Put(inbox, src, n, right)  // push to the right
			pe.Get(fetched, src, n, left) // pull from the left
			pe.Compute(compute)           // proxies move the data meanwhile
			t0 := p.Now()
			pe.Quiet()
			fmt.Printf("PE %d: Quiet blocked %v; inbox[0]=%d (want %d), fetched[0]=%d (want %d)\n",
				pe.ID(), p.Now()-t0, peByte(pe, inbox), left, peByte(pe, fetched), left)
		})
	}
	end, err := sys.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("done at t=%v\n", end)
}

func peByte(pe *shmem.PE, a shmem.SymAddr) byte { return pe.Bytes(a, 1)[0] }
