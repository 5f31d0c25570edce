// Ringbcast reproduces the paper's Figure 1: a ring broadcast with a data
// dependency per hop, implemented three ways —
//
//  1. host MPI nonblocking point-to-point, where each forwarding step waits
//     for the CPU to come back from compute (Listing 1);
//  2. the offload framework's Group primitives over the staging mechanism;
//  3. the Group primitives over cross-GVMI (the proposed design).
//
// Every rank computes while the broadcast is in flight; the printed
// completion times show the CPU-intervention penalty of case 1 and the
// staging penalty of case 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/span"
)

const (
	nodes   = 8
	ppn     = 1
	size    = 256 << 10
	compute = 200 * sim.Microsecond
	tag     = 4
)

var traceFlag = flag.Bool("trace", false, "print the GVMI case's protocol timeline (Figure 1 as data)")

func main() {
	flag.Parse()
	fmt.Printf("ring broadcast of %d KiB over %d ranks, each rank computing %v\n\n",
		size>>10, nodes*ppn, compute)
	hostMPI()
	offload("staged offload (case 2) ", baseline.StagingNoWarmupConfig())
	offload("GVMI offload (case 3)   ", baseline.ProposedConfig())
}

// hostMPI is case 1: the ring forwarded by the CPU, which is busy
// computing; MPI_Test polls give it a chance every 100us.
func hostMPI() {
	e := bench.Build(bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameIntelMPI})
	np := e.Cl.Cfg.NP()
	done := make([]sim.Time, np)
	e.Launch(func(r *mpi.Rank, _ coll.Ops, _ coll.P2P) {
		me := r.RankID()
		buf := r.Alloc(size)
		right := (me + 1) % np
		var sq, rq *mpi.Request
		if me == 0 {
			sq = r.Isend(buf.Addr(), size, right, tag)
		} else {
			rq = r.Irecv(buf.Addr(), size, me-1, tag)
		}
		remaining := compute
		forwarded := me == 0 || right == 0
		for remaining > 0 {
			r.Compute(50 * sim.Microsecond)
			remaining -= 50 * sim.Microsecond
			if rq != nil && !forwarded && r.Test(rq) {
				sq = r.Isend(buf.Addr(), size, right, tag) // forward
				forwarded = true
			}
		}
		if rq != nil {
			r.Wait(rq)
			if !forwarded {
				sq = r.Isend(buf.Addr(), size, right, tag)
			}
		}
		if sq != nil {
			r.Wait(sq)
		}
		done[me] = r.Now()
	})
	report("host MPI (case 1)       ", done)
}

// offload runs cases 2 and 3: the whole ring recorded as one group request
// per rank and executed by the proxies while the hosts compute.
func offload(label string, cfg core.Config) {
	opt := bench.Options{Nodes: nodes, PPN: ppn, Scheme: baseline.NameProposed, Core: &cfg}
	if *traceFlag && cfg.Path == datapath.KindCrossGVMI {
		opt.Spans = span.New(0)
	}
	e := bench.Build(opt)
	np := e.Cl.Cfg.NP()
	done := make([]sim.Time, np)
	e.Launch(func(r *mpi.Rank, _ coll.Ops, _ coll.P2P) {
		me := r.RankID()
		h := e.Fw.Host(me)
		buf := r.Alloc(size)
		right := (me + 1) % np
		g := h.GroupStart()
		if me == 0 {
			g.Send(buf.Addr(), size, right, tag)
		} else {
			g.Recv(buf.Addr(), size, me-1, tag)
			g.LocalBarrier()
			if right != 0 {
				g.Send(buf.Addr(), size, right, tag)
			}
		}
		g.End()
		h.GroupCall(g)
		r.Compute(compute)
		h.GroupWait(g)
		done[me] = r.Now()
	})
	report(label, done)
	if opt.Spans.Enabled() {
		fmt.Println("\nprotocol timeline:")
		if err := opt.Spans.WriteTimeline(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ringbcast: timeline:", err)
			os.Exit(1)
		}
	}
}

func report(label string, done []sim.Time) {
	var last sim.Time
	for _, d := range done {
		if d > last {
			last = d
		}
	}
	fmt.Printf("%s last rank finished at %v (+%v beyond the %v compute)\n",
		label, last, last-compute, compute)
}
