package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/fabric"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// microBench is one layer's hot operation behind its exported entry point.
// prep builds the rig (not measured) and returns the function that performs
// exactly N operations. N is fixed in the source, not calibrated, so the
// same work is timed on every commit.
type microBench struct {
	Name string // metric stem: <Name>_ns and <Name>_allocs
	N    int
	prep func(n int) func()
}

const microReps = 5

// microResult is the median over microReps repetitions.
type microResult struct {
	NsPerOp     float64
	AllocsPerOp float64
}

func runMicro(b microBench) microResult {
	ns := make([]float64, microReps)
	allocs := make([]float64, microReps)
	var m0, m1 runtime.MemStats
	for i := range ns {
		run := b.prep(b.N)
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns[i] = float64(d) / float64(b.N)
		allocs[i] = float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
	}
	return microResult{NsPerOp: median(ns), AllocsPerOp: median(allocs)}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nopAction is a delivery that does nothing, for timing the fabric alone.
type nopAction struct{}

func (nopAction) Fire(sim.Time) {}

// heapDepth is the pending-event count of the deep-heap hold model: what
// one 256-rank alltoall keeps queued.
const heapDepth = 65536

var microBenches = []microBench{
	{Name: "sim.event", N: 2_000_000, prep: func(n int) func() {
		// Schedule-and-fire on an empty heap: a chain of n events.
		k := sim.NewKernel()
		left := n
		var fire func()
		fire = func() {
			if left--; left > 0 {
				k.At(1, fire)
			}
		}
		k.At(1, fire)
		return func() { k.Run() }
	}},
	{Name: "sim.event_deep", N: 200_000, prep: func(n int) func() {
		// Hold model: heapDepth events pending; every fired event schedules
		// a successor at a pseudo-random distance until n have been
		// scheduled in all, so each pop and push works on a deep heap.
		k := sim.NewKernel()
		x := uint64(1)
		scheduled := 0
		var fire func()
		fire = func() {
			if scheduled < n {
				scheduled++
				k.At(sim.Time(1+splitmix64(&x)%heapDepth), fire)
			}
		}
		for scheduled < heapDepth && scheduled < n {
			fire()
		}
		return func() { k.Run() }
	}},
	{Name: "sim.handoff", N: 100_000, prep: func(n int) func() {
		// Two processes passing a turn through Cond: n hand-offs in all.
		k := sim.NewKernel()
		var conds [2]sim.Cond
		turn := 0
		for me := 0; me < 2; me++ {
			me := me
			k.Spawn("p", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					for turn%2 != me {
						conds[me].Wait(p)
					}
					turn++
					conds[1-me].Broadcast()
				}
			})
		}
		return func() { k.Run(); k.Shutdown() }
	}},
	{Name: "sim.sleep", N: 100_000, prep: func(n int) func() {
		k := sim.NewKernel()
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		return func() { k.Run(); k.Shutdown() }
	}},
	{Name: "fabric.transfer", N: 1_000_000, prep: func(n int) func() {
		// TransferAction between two nodes' host ports, delivery included,
		// drained every 256 so the heap stays shallow.
		k := sim.NewKernel()
		f := fabric.New(k, fabric.DefaultConfig())
		par := fabric.Params{Overhead: 100 * sim.Nanosecond, GBps: 12.5}
		src, dst := f.NewEndpoint("a", 0, par), f.NewEndpoint("b", 1, par)
		return func() {
			for i := 0; i < n; i += 256 {
				for j := 0; j < 256 && i+j < n; j++ {
					f.TransferAction(src, dst, 4096, nopAction{})
				}
				k.Run()
			}
		}
	}},
	{Name: "verbs.write", N: 50_000, prep: func(n int) func() {
		cl := cluster.New(cluster.DefaultConfig(2, 1))
		a, b := cl.NewHostSite(0, "a"), cl.NewHostSite(1, "b")
		abuf, bbuf := a.Space.Alloc(4096, false), b.Space.Alloc(4096, false)
		cl.K.Spawn("writer", func(p *sim.Proc) {
			amr := a.Ctx.RegisterMR(p, abuf.Addr(), 4096)
			bmr := b.Ctx.RegisterMR(p, bbuf.Addr(), 4096)
			op := verbs.WriteOp{
				LocalKey: amr.LKey(), LocalAddr: abuf.Addr(),
				RemoteKey: bmr.RKey(), RemoteAddr: bbuf.Addr(), Size: 4096,
			}
			for i := 0; i < n; i++ {
				if err := a.Ctx.PostWrite(p, op); err != nil {
					panic(err)
				}
			}
		})
		return func() { cl.K.Run(); cl.K.Shutdown() }
	}},
	{Name: "verbs.send_poll", N: 25_000, prep: func(n int) func() {
		cl := cluster.New(cluster.DefaultConfig(2, 1))
		a, b := cl.NewHostSite(0, "a"), cl.NewHostSite(1, "b")
		cl.K.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				pkt := cl.Reg.GetPacket()
				pkt.Kind, pkt.Size = "m", 64
				a.Ctx.PostSend(p, b.Ctx, pkt)
			}
		})
		cl.K.Spawn("poller", func(p *sim.Proc) {
			for got := 0; got < n; {
				b.Ctx.AwaitInbox(p)
				for _, pkt := range b.Ctx.PollInbox() {
					cl.Reg.PutPacket(pkt)
					got++
				}
			}
		})
		return func() { cl.K.Run(); cl.K.Shutdown() }
	}},
	{Name: "regcache.get", N: 1_000_000, prep: func(n int) func() {
		// Hits on a 1000-entry shard.
		c := regcache.New[int](1, 0, nil)
		for i := 0; i < 1000; i++ {
			c.Put(0, mem.Addr(i*4096), 4096, i)
		}
		return func() {
			for i := 0; i < n; i++ {
				if _, ok := c.Get(0, mem.Addr(i%1000*4096), 4096); !ok {
					panic("regcache miss")
				}
			}
		}
	}},
	{Name: "gvmi.crossreg", N: 50_000, prep: func(n int) func() {
		// RegisterHost + CrossRegister, released again so the tables stay
		// at steady state.
		cl := cluster.New(cluster.DefaultConfig(1, 1))
		host, dpu := cl.NewHostSite(0, "host"), cl.NewDPUSite(0, "dpu")
		buf := host.Space.Alloc(64<<10, false)
		id := cl.GVMI.GenerateID(dpu.Ctx)
		cl.K.Spawn("reg", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				info, err := cl.GVMI.RegisterHost(p, host.Ctx, buf.Addr(), 64<<10, id)
				if err != nil {
					panic(err)
				}
				mr, err := cl.GVMI.CrossRegister(p, dpu.Ctx, info)
				if err != nil {
					panic(err)
				}
				mr.Deregister()
				cl.GVMI.InvalidateHost(info.MKey)
			}
		})
		return func() { cl.K.Run(); cl.K.Shutdown() }
	}},
	{Name: "mpi.p2p_msg", N: 10_000, prep: func(n int) func() {
		// Two ranks on two nodes, 1 KiB eager messages one at a time.
		e := bench.Build(bench.Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI})
		return func() {
			e.Launch(func(r *mpi.Rank, _ coll.Ops, _ coll.P2P) {
				buf := r.Alloc(1024)
				for i := 0; i < n; i++ {
					if r.RankID() == 0 {
						r.Wait(r.Isend(buf.Addr(), 1024, 1, 5))
					} else {
						r.Wait(r.Irecv(buf.Addr(), 1024, 0, 5))
					}
				}
			})
		}
	}},
	{Name: "core.offload_p2p", N: 5_000, prep: func(n int) func() {
		// The same pair through coll.P2P's offloaded basic primitives.
		e := bench.Build(bench.Options{Nodes: 2, PPN: 1, Scheme: baseline.NameProposed})
		return func() {
			e.Launch(func(r *mpi.Rank, _ coll.Ops, p2p coll.P2P) {
				buf := r.Alloc(1024)
				reqs := make([]coll.Request, 1)
				for i := 0; i < n; i++ {
					if r.RankID() == 0 {
						reqs[0] = p2p.Isend(buf.Addr(), 1024, 1, 5)
					} else {
						reqs[0] = p2p.Irecv(buf.Addr(), 1024, 0, 5)
					}
					p2p.WaitAll(reqs)
				}
			})
		}
	}},
	{Name: "policy.decide", N: 400_000, prep: func(n int) func() {
		// Engine.Decide + Observe under the feedback policy with a live
		// registry, as tenant.Run wires it.
		eng := policy.NewEngine(policy.NewFeedback(policy.DefaultFeedbackConfig()), metrics.NewRegistry())
		return func() {
			for i := 0; i < n; i++ {
				q := policy.Request{Class: policy.ClassGroup, Size: 64 << 10, Call: i}
				d := eng.Decide(q)
				eng.Observe(q, d.Path, sim.Time(1000+i%7))
			}
		}
	}},
	{Name: "metrics.counter_inc", N: 20_000_000, prep: func(n int) func() {
		c := metrics.NewRegistry().Counter("bench", "all", "ops")
		return func() {
			for i := 0; i < n; i++ {
				c.Inc()
			}
		}
	}},
	{Name: "span.start_end", N: 2_000_000, prep: func(n int) func() {
		// Start+End of a root span; the collector is recycled every 4096 so
		// the measurement is the steady state, not slice growth.
		sp := span.New(0)
		return func() {
			for i := 0; i < n; i++ {
				if i%4096 == 0 {
					sp.Reset()
				}
				sp.End(sp.Start(0, span.ClassRank, "rank0", "bench", "op"))
			}
		}
	}},
}
