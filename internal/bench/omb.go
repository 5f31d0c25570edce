package bench

import (
	"slices"

	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// NBCResult is one row of an OMB-style nonblocking-collective benchmark.
type NBCResult struct {
	Scheme  string
	Nodes   int
	PPN     int
	MsgSize int

	PureComm sim.Time // latency of collective+wait with no compute
	Compute  sim.Time // injected compute (set to PureComm, as in OMB)
	Overall  sim.Time // collective, compute, wait
	Overlap  float64  // percent
}

// measureOverlap is the OMB overlap loop every nonblocking benchmark in this
// package shares: warmup rounds, iters timed rounds of issue+wait (the pure
// communication latency), then iters timed rounds with compute sized to the
// rank's own pure latency between issue and wait — a barrier after every
// round. setup runs once per rank: it allocates the rank's buffers and
// returns the two halves of one operation. reduce folds the per-rank means
// into the reported values. The second result is the run's final virtual
// time.
func measureOverlap(e *Env, msgSize, warmup, iters int, reduce func([]sim.Time) sim.Time,
	setup func(r *mpi.Rank, ops coll.Ops, p2p coll.P2P) (issue, wait func())) (NBCResult, sim.Time) {
	np := e.Cl.Cfg.NP()
	pure := make([]sim.Time, np)
	overall := make([]sim.Time, np)

	end := e.Launch(func(r *mpi.Rank, ops coll.Ops, p2p coll.P2P) {
		me := r.RankID()
		issue, wait := setup(r, ops, p2p)

		for it := 0; it < warmup; it++ {
			issue()
			wait()
			r.Barrier()
		}

		// Pure communication latency.
		var acc sim.Time
		for it := 0; it < iters; it++ {
			t0 := r.Now()
			issue()
			wait()
			acc += r.Now() - t0
			r.Barrier()
		}
		pure[me] = acc / sim.Time(iters)

		// Overall time with compute sized to the pure latency (OMB).
		acc = 0
		for it := 0; it < iters; it++ {
			t0 := r.Now()
			issue()
			r.Compute(pure[me])
			wait()
			acc += r.Now() - t0
			r.Barrier()
		}
		overall[me] = acc / sim.Time(iters)
	})

	res := NBCResult{Scheme: e.Spec.Scheme, Nodes: e.Spec.Nodes, PPN: e.Spec.PPN, MsgSize: msgSize}
	res.PureComm = reduce(pure)
	res.Compute = res.PureComm
	res.Overall = reduce(overall)
	res.Overlap = OverlapPct(res.PureComm, res.Compute, res.Overall)
	return res, end
}

// MeasureIalltoall runs the OMB Ialltoall overlap benchmark for one scheme
// and message size (bytes per peer), with warmup+iters iterations of each
// phase. It reproduces the methodology behind Figures 13/14.
func MeasureIalltoall(opt Options, msgSize, warmup, iters int) NBCResult {
	e := Build(opt)
	np := e.Cl.Cfg.NP()
	res, _ := measureOverlap(e, msgSize, warmup, iters, slices.Max[[]sim.Time],
		func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) (issue, wait func()) {
			send := r.Alloc(np * msgSize)
			recv := r.Alloc(np * msgSize)
			var q coll.Request
			return func() { q = ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize) },
				func() { ops.Wait(q) }
		})
	return res
}

// MeasureIallgather runs the OMB-style Iallgather overlap benchmark
// (per bytes contributed by each rank).
func MeasureIallgather(opt Options, msgSize, warmup, iters int) NBCResult {
	e := Build(opt)
	np := e.Cl.Cfg.NP()
	res, _ := measureOverlap(e, msgSize, warmup, iters, slices.Max[[]sim.Time],
		func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) (issue, wait func()) {
			send := r.Alloc(msgSize)
			recv := r.Alloc(np * msgSize)
			var q coll.Request
			return func() { q = ops.Iallgather(0, send.Addr(), recv.Addr(), msgSize) },
				func() { ops.Wait(q) }
		})
	return res
}

// MeasureIbcast runs the OMB-style Ibcast overlap benchmark (root 0,
// size bytes).
func MeasureIbcast(opt Options, size, warmup, iters int) NBCResult {
	res, _ := measureOverlap(Build(opt), size, warmup, iters, slices.Max[[]sim.Time],
		func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) (issue, wait func()) {
			buf := r.Alloc(size)
			var q coll.Request
			return func() { q = ops.Ibcast(0, buf.Addr(), size, 0) },
				func() { ops.Wait(q) }
		})
	return res
}

// OverlapPct is the OMB overlap formula:
// 100 * (1 - (overall - compute) / pure), clamped to [0, 100].
func OverlapPct(pure, compute, overall sim.Time) float64 {
	if pure <= 0 {
		return 0
	}
	v := 100 * (1 - float64(overall-compute)/float64(pure))
	if v < 0 {
		v = 0
	}
	if v > 100 {
		v = 100
	}
	return v
}

// MeasureScatterDest measures the latency of one personalized
// scatter-destination exchange implemented with either the Simple (basic)
// primitives — four control messages per transfer — or the Group
// primitives, reproducing Figure 15. simple selects the implementation.
func MeasureScatterDest(opt Options, msgSize, warmup, iters int, simple bool) NBCResult {
	e := Build(opt)
	np := e.Cl.Cfg.NP()
	lat := make([]sim.Time, np)

	e.Launch(func(r *mpi.Rank, ops coll.Ops, p2p coll.P2P) {
		me := r.RankID()
		send := r.Alloc(np * msgSize)
		recv := r.Alloc(np * msgSize)

		exchange := func() {
			if simple {
				reqs := make([]coll.Request, 0, 2*(np-1))
				for i := 1; i < np; i++ {
					src := (me - i + np) % np
					reqs = append(reqs, p2p.Irecv(recv.Addr()+mem.Addr(src*msgSize), msgSize, src, 9))
				}
				for i := 1; i < np; i++ {
					dst := (me + i) % np
					reqs = append(reqs, p2p.Isend(send.Addr()+mem.Addr(dst*msgSize), msgSize, dst, 9))
				}
				p2p.WaitAll(reqs)
			} else {
				ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize))
			}
		}

		for it := 0; it < warmup; it++ {
			exchange()
			r.Barrier()
		}
		var acc sim.Time
		for it := 0; it < iters; it++ {
			t0 := r.Now()
			exchange()
			acc += r.Now() - t0
			r.Barrier()
		}
		lat[me] = acc / sim.Time(iters)
	})

	res := NBCResult{Scheme: opt.Scheme, Nodes: opt.Nodes, PPN: opt.PPN, MsgSize: msgSize}
	res.PureComm = slices.Max(lat)
	res.Overall = res.PureComm
	return res
}

// MeasurePingpongNB measures the Figure 4 benchmark: concurrent two-way
// nonblocking send/receive between two ranks on different nodes, followed
// by a wait-all; reported as one-way latency.
func MeasurePingpongNB(opt Options, msgSize, warmup, iters int) sim.Time {
	e := Build(opt)
	lat := make([]sim.Time, 2)

	e.Launch(func(r *mpi.Rank, _ coll.Ops, p2p coll.P2P) {
		me := r.RankID()
		if me > 1 {
			return
		}
		peer := 1 - me
		sbuf := r.Alloc(msgSize)
		rbuf := r.Alloc(msgSize)
		round := func() {
			rq := p2p.Irecv(rbuf.Addr(), msgSize, peer, 1)
			sq := p2p.Isend(sbuf.Addr(), msgSize, peer, 1)
			p2p.WaitAll([]coll.Request{rq, sq})
		}
		for it := 0; it < warmup; it++ {
			round()
		}
		t0 := r.Now()
		for it := 0; it < iters; it++ {
			round()
		}
		lat[me] = (r.Now() - t0) / sim.Time(iters)
	})

	return slices.Max(lat)
}
