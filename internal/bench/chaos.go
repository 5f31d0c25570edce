package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ChaosResult is one row of a chaos sweep: the OMB Ialltoall overlap
// measurement repeated under deterministic fault injection, with end-to-end
// payload verification of every iteration.
type ChaosResult struct {
	NBCResult
	FaultRate  float64 // the nominal rate the fault.Config was scaled from
	EndTime    sim.Time
	Verified   bool // every recv buffer matched the expected pattern
	Mismatches int  // corrupted/missing blocks detected (0 when Verified)
	Fault      fault.Stats
	Core       core.Stats
}

// chaosPattern is the deterministic byte each rank writes: src's block for
// dst in call seq. Verification recomputes it on the receiver, so any lost
// or stale block is caught.
func chaosPattern(src, dst, seq, i int) byte {
	return byte(src*131 + dst*31 + seq*17 + i)
}

// MeasureChaosIalltoall runs the exact measurement loop of MeasureIalltoall
// — same warmup, same barriers, same compute sizing — on payload-backed
// buffers under the given fault plan, filling every send block with a
// per-iteration pattern before each collective and verifying every recv
// block after each Wait. Buffer fills and checks use mem.Space directly and
// cost zero virtual time, so with a rate-zero plan the timings are identical
// to MeasureIalltoall on the same Options.
//
// fcfg may be nil (no injector at all).
func MeasureChaosIalltoall(opt Options, fcfg *fault.Config, rate float64, msgSize, warmup, iters int) ChaosResult {
	if opt.Cluster == nil {
		ccfg := cluster.DefaultConfig(opt.Nodes, opt.PPN)
		opt.Cluster = &ccfg
	}
	opt.Cluster.Fault = fcfg
	opt.Backed = true

	e := Build(opt)
	np := e.Cl.Cfg.NP()
	mismatches := make([]int, np)

	// The fill and the verification run inside the timed window, at zero
	// virtual cost.
	nbc, end := measureOverlap(e, msgSize, warmup, iters, maxTime,
		func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) (issue, wait func()) {
			me := r.RankID()
			sp := r.Space()
			send := r.Alloc(np * msgSize)
			recv := r.Alloc(np * msgSize)
			blk := make([]byte, msgSize)
			seq := 0
			var q coll.Request
			issue = func() {
				for dst := 0; dst < np; dst++ {
					for i := range blk {
						blk[i] = chaosPattern(me, dst, seq, i)
					}
					sp.WriteAt(send.Addr()+mem.Addr(dst*msgSize), blk, msgSize)
				}
				q = ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize)
			}
			wait = func() {
				ops.Wait(q)
				for src := 0; src < np; src++ {
					got := sp.ReadAt(recv.Addr()+mem.Addr(src*msgSize), msgSize)
					ok := got != nil
					for i := 0; ok && i < msgSize; i++ {
						if got[i] != chaosPattern(src, me, seq, i) {
							ok = false
						}
					}
					if !ok {
						mismatches[me]++
					}
				}
				seq++
			}
			return issue, wait
		})

	res := ChaosResult{
		NBCResult: nbc,
		FaultRate: rate,
		EndTime:   end,
	}
	total := 0
	for _, m := range mismatches {
		total += m
	}
	res.Mismatches = total
	res.Verified = total == 0
	if e.Cl.Inj != nil {
		res.Fault = e.Cl.Inj.Stats
	}
	if e.Fw != nil {
		res.Core = e.Fw.Stats()
	}
	return res
}

// ChaosSweep measures the Ialltoall benchmark across fault rates. Rate 0
// attaches a real (but silent) injector, which must reproduce the
// fault-free timings; every nonzero rate uses fault.Scaled(seed, rate).
func ChaosSweep(env SweepEnv, opt Options, seed int64, rates []float64, msgSize, warmup, iters int) []ChaosResult {
	out := make([]ChaosResult, len(rates))
	env.Sweep(len(rates), func(i int, env SweepEnv) {
		o := env.Attach(opt)
		if opt.Cluster != nil {
			// MeasureChaosIalltoall writes the fault plan into the cluster
			// config; give each rate its own copy.
			ccfg := *opt.Cluster
			o.Cluster = &ccfg
		}
		out[i] = MeasureChaosIalltoall(o, fault.Scaled(seed, rates[i]), rates[i], msgSize, warmup, iters)
	})
	return out
}

// ChaosTable renders a sweep as a printable table.
func ChaosTable(results []ChaosResult) *Table {
	t := &Table{
		Title: "Chaos: Ialltoall under fault injection",
		Headers: []string{"rate", "size", "pure(us)", "overall(us)", "overlap",
			"drops", "corrupt", "delays", "cqe", "retries", "verified"},
	}
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%g", r.FaultRate),
			fmt.Sprintf("%d", r.MsgSize),
			F2(float64(r.PureComm)/1000),
			F2(float64(r.Overall)/1000),
			Pct(r.Overlap),
			fmt.Sprintf("%d", r.Fault.Drops),
			fmt.Sprintf("%d", r.Fault.Corrupts),
			fmt.Sprintf("%d", r.Fault.Delays),
			fmt.Sprintf("%d", r.Fault.CQErrors),
			fmt.Sprintf("%d", r.Fault.Retries),
			fmt.Sprintf("%v", r.Verified),
		)
	}
	t.Notes = append(t.Notes,
		"payloads verified end to end every iteration; rate 0 matches fig13 timings exactly")
	return t
}
