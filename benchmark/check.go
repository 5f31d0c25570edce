package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// checks accumulates the correctness gate of one benchmark run: how many
// checks were attempted and what each failed one said.
type checks struct {
	Attempted int
	Failed    int
	Messages  []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.Attempted++
	if !ok {
		c.fail(1, format, args...)
	}
}

func (c *checks) fail(n int, format string, args ...any) {
	c.Failed += n
	c.Messages = append(c.Messages, fmt.Sprintf(format, args...))
}

var schemes = []string{baseline.NameProposed, baseline.NameIntelMPI, baseline.NameBluesMPI}

// integrity runs one payload-backed 4×4-rank 4 KiB alltoall per scheme,
// twice (install, then replay), with the harness filling every send block
// and verifying every received one: one check per received block.
func (c *checks) integrity() {
	const nodes, ppn, size, rounds = 4, 4, 4096, 2
	pattern := func(src, dst, round, i int) byte {
		return byte(src*131 + dst*31 + round*17 + i*7 + i>>8)
	}
	for _, scheme := range schemes {
		e := bench.Build(bench.Options{Nodes: nodes, PPN: ppn, Scheme: scheme, Backed: true})
		np := nodes * ppn
		bad := make([]int, np)
		e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
			me, sp := r.RankID(), r.Space()
			send, recv := r.Alloc(np*size), r.Alloc(np*size)
			blk := make([]byte, size)
			for round := 0; round < rounds; round++ {
				for dst := 0; dst < np; dst++ {
					for i := range blk {
						blk[i] = pattern(me, dst, round, i)
					}
					sp.WriteAt(send.Addr()+mem.Addr(dst*size), blk, size)
				}
				ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
				for src := 0; src < np; src++ {
					got := sp.ReadAt(recv.Addr()+mem.Addr(src*size), size)
					ok := got != nil
					for i := 0; ok && i < size; i++ {
						ok = got[i] == pattern(src, me, round, i)
					}
					if !ok {
						bad[me]++
					}
				}
				r.Barrier()
			}
		})
		total := 0
		for _, n := range bad {
			total += n
		}
		c.Attempted += rounds * np * np
		if total > 0 {
			c.fail(total, "integrity: %s delivered %d wrong blocks of %d", scheme, total, rounds*np*np)
		}
	}
}

// ordering asserts the paper's Figure 13 claim at the seed's message size:
// Proposed overall < IntelMPI overall < BluesMPI overall. The full 256-rank
// shape holds it too (the suite checks that across its three a2a
// workloads); a single-workload run has only one scheme's result, so it
// checks the claim on a 32-rank shape that costs milliseconds.
func (c *checks) ordering(msgSize int) {
	overall := map[string]int64{}
	for _, scheme := range schemes {
		e := bench.Build(bench.Options{Nodes: 4, PPN: 8, Scheme: scheme})
		overall[scheme] = int64(ombIalltoall(e, msgSize, 1, 1).overall)
	}
	c.orderingOf(overall, "32 ranks")
}

func (c *checks) orderingOf(overall map[string]int64, where string) {
	p, i, b := overall[baseline.NameProposed], overall[baseline.NameIntelMPI], overall[baseline.NameBluesMPI]
	c.check(p < i && i < b, "ordering at %s: want Proposed < IntelMPI < BluesMPI overall, got %d / %d / %d ns", where, p, i, b)
}

// goldens are the seed-1 simulated results of every workload at its
// checked-in shape. They move only with a declared model change. The a2a
// rows are also the 256-rank point of BENCH_scale.json, which uses the same
// shape and loop counts.
var goldens = map[string]map[string]int64{
	"a2a-gvmi-256":    {"pure_ns": 7734796, "overall_ns": 7740337, "overlap_milli_pct": 99928},
	"a2a-host-256":    {"pure_ns": 7216656, "overall_ns": 13964069, "overlap_milli_pct": 6502},
	"a2a-staged-256":  {"pure_ns": 85977409, "overall_ns": 86499323, "overlap_milli_pct": 99392},
	"stencil-p2p-256": {"pure_ns": 1017774, "overall_ns": 1158322, "overlap_milli_pct": 86190},
	"drift-feedback": {
		"pre_n": 40, "pre_p50_ns": 61002, "pre_p99_ns": 61002,
		"post_n": 100, "post_p50_ns": 744585, "post_p99_ns": 1228636,
		"makespan_ns": 255837880,
	},
}

// golden checks a seed-1 run against the pinned results.
func (c *checks) golden(w workload, virt map[string]int64) {
	want := goldens[w.Name]
	c.check(len(want) > 0, "golden: %s has none", w.Name)
	for k, v := range want {
		c.check(virt[k] == v, "golden: %s %s = %d, want %d", w.Name, k, virt[k], v)
	}
}

// sameResults reports whether two runs simulated the same thing.
func sameResults(a, b map[string]int64) bool {
	ok := len(a) == len(b)
	for k, v := range a {
		ok = ok && b[k] == v
	}
	return ok
}

// sameVirt checks that two runs of one seed simulated the same thing.
func (c *checks) sameVirt(what string, a, b map[string]int64) {
	c.check(sameResults(a, b), "%s: simulated results differ between runs of one seed: %v vs %v", what, a, b)
}
