// Quickstart: build a 2-node simulated BlueField cluster, offload a
// point-to-point transfer to the DPU with the Basic primitives, and show
// that it completes while the host computes.
//
// This walkthrough gives one job the whole cluster for clarity; the
// simulator is not single-job — internal/tenant runs N concurrent jobs
// on a shared fabric with per-tenant proxy fairness (try
// `go run ./cmd/offloadbench pattern -preset ring -np 4 -ppn 2 -tenants 2`).
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/sim"
)

func main() {
	// A 2-node cluster, one host process per node, 8 proxies per DPU,
	// running the paper's Proposed system: cross-GVMI mechanism, caches on.
	// Bare host sites, not MPI ranks: the walkthrough spawns its own
	// processes and drives the framework's host handles directly.
	sys, err := baseline.Build(baseline.Spec{Nodes: 2, PPN: 1, Scheme: baseline.NameProposed, Backed: true, Bare: true})
	if err != nil {
		panic(err)
	}
	cl, fw, sites := sys.Cl, sys.Fw, sys.Sites

	const size = 1 << 20 // 1 MiB
	const compute = 2 * sim.Millisecond

	// Rank 0: Send_Offload, then compute, then Wait.
	cl.K.Spawn("rank0", func(p *sim.Proc) {
		h := fw.Host(0)
		h.Bind(p)
		buf := sites[0].Space.Alloc(size, true)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = byte(i)
		}
		req := h.SendOffload(buf.Addr(), size, 1, 0)
		p.AdvanceBusy(compute) // the DPU progresses the transfer meanwhile
		t0 := p.Now()
		h.Wait(req)
		fmt.Printf("rank0: Wait returned after %v of blocking (transfer overlapped %v of compute)\n",
			p.Now()-t0, compute)
	})

	// Rank 1: Recv_Offload with the same overlap structure.
	cl.K.Spawn("rank1", func(p *sim.Proc) {
		h := fw.Host(1)
		h.Bind(p)
		buf := sites[1].Space.Alloc(size, true)
		req := h.RecvOffload(buf.Addr(), size, 0, 0)
		p.AdvanceBusy(compute)
		t0 := p.Now()
		h.Wait(req)
		fmt.Printf("rank1: Wait blocked %v; first/last payload bytes: %d %d\n",
			p.Now()-t0, buf.Bytes()[0], buf.Bytes()[size-1])
	})

	end, err := sys.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulation finished at t=%v (virtual)\n", end)
}
