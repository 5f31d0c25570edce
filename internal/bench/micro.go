package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// LatencyRow is one point of the Figure 2 microbenchmark.
type LatencyRow struct {
	Size     int
	HostHost sim.Time // writer runs on a host core
	HostDPU  sim.Time // writer runs on a BlueField ARM core
}

// BandwidthRow is one point of the Figure 3 microbenchmark. Values are in
// GB/s; Normalized is HostDPU/HostHost (the paper normalizes to host).
type BandwidthRow struct {
	Size       int
	HostHost   float64
	HostDPU    float64
	Normalized float64
}

// RegistrationRow is one point of the Figure 5 microbenchmark.
type RegistrationRow struct {
	Size     int
	HostReg  sim.Time // host-side GVMI registration
	CrossReg sim.Time // DPU-side cross-registration
}

// microRig is a 2-node testbed with a writable destination on node 1 and
// two possible writers on node 0: a host process and a DPU process.
type microRig struct {
	cl *cluster.Cluster
}

func newMicroRig() *microRig {
	return &microRig{cl: cluster.New(cluster.DefaultConfig(2, 1))}
}

// MeasureRDMALatency reproduces Figure 2: one-way RDMA-write latency when
// the writer is a host process versus a DPU (ARM) process. The latency is
// measured as half of a write-write pingpong. Each (size, writer) sample is
// an independent rig, so the sweep parallelizes; samples write disjoint
// fields of their pre-sized row.
func MeasureRDMALatency(env SweepEnv, sizes []int, iters int) []LatencyRow {
	rows := make([]LatencyRow, len(sizes))
	for i, size := range sizes {
		rows[i].Size = size
	}
	env.Sweep(2*len(sizes), func(j int, _ SweepEnv) {
		i := j / 2
		if j%2 == 0 {
			rows[i].HostHost = pingpongHalf(rows[i].Size, iters, false)
		} else {
			rows[i].HostDPU = pingpongHalf(rows[i].Size, iters, true)
		}
	})
	return rows
}

func pingpongHalf(size, iters int, writerOnDPU bool) sim.Time {
	rig := newMicroRig()
	cl := rig.cl
	var writerSite *cluster.Site
	if writerOnDPU {
		writerSite = cl.NewDPUSite(0, "writer")
	} else {
		writerSite = cl.NewHostSite(0, "writer")
	}
	echoSite := cl.NewHostSite(1, "echo")

	wbuf := writerSite.Space.Alloc(size, false)
	ebuf := echoSite.Space.Alloc(size, false)

	var half sim.Time
	total := iters + 1 // one warmup round
	var wmr, emr *verbs.MR

	// The echo side: on every arrival (write with immediate), post the
	// response from its own core.
	cl.K.Spawn("echo", func(p *sim.Proc) {
		emr = echoSite.Ctx.RegisterMR(p, ebuf.Addr(), size)
		for i := 0; i < total; i++ {
			echoSite.Ctx.AwaitInbox(p)
			echoSite.Ctx.PollInbox()
			err := echoSite.Ctx.PostWrite(p, verbs.WriteOp{
				LocalKey: emr.LKey(), LocalAddr: ebuf.Addr(),
				RemoteKey: wmr.RKey(), RemoteAddr: wbuf.Addr(), Size: size,
				Notify: &verbs.Packet{Kind: "pong"},
			})
			if err != nil {
				panic(err)
			}
		}
	})

	cl.K.Spawn("writer", func(p *sim.Proc) {
		wmr = writerSite.Ctx.RegisterMR(p, wbuf.Addr(), size)
		round := func() {
			err := writerSite.Ctx.PostWrite(p, verbs.WriteOp{
				LocalKey: wmr.LKey(), LocalAddr: wbuf.Addr(),
				RemoteKey: emr.RKey(), RemoteAddr: ebuf.Addr(), Size: size,
				Notify: &verbs.Packet{Kind: "ping"},
			})
			if err != nil {
				panic(err)
			}
			writerSite.Ctx.AwaitInbox(p)
			writerSite.Ctx.PollInbox()
		}
		round() // warmup
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			round()
		}
		half = (p.Now() - t0) / sim.Time(2*iters)
	})
	cl.K.Run()
	cl.K.Shutdown()
	return half
}

// MeasureRDMABandwidth reproduces Figure 3: streaming RDMA-write bandwidth
// with a window of outstanding writes, for a host writer versus a DPU
// writer, normalized to the host writer.
func MeasureRDMABandwidth(env SweepEnv, sizes []int, window, iters int) []BandwidthRow {
	rows := make([]BandwidthRow, len(sizes))
	for i, size := range sizes {
		rows[i].Size = size
	}
	env.Sweep(2*len(sizes), func(j int, _ SweepEnv) {
		i := j / 2
		if j%2 == 0 {
			rows[i].HostHost = streamBW(rows[i].Size, window, iters, false)
		} else {
			rows[i].HostDPU = streamBW(rows[i].Size, window, iters, true)
		}
	})
	for i := range rows {
		rows[i].Normalized = rows[i].HostDPU / rows[i].HostHost
	}
	return rows
}

func streamBW(size, window, iters int, writerOnDPU bool) float64 {
	rig := newMicroRig()
	cl := rig.cl
	var writerSite *cluster.Site
	if writerOnDPU {
		writerSite = cl.NewDPUSite(0, "writer")
	} else {
		writerSite = cl.NewHostSite(0, "writer")
	}
	dstSite := cl.NewHostSite(1, "dst")

	wbuf := writerSite.Space.Alloc(size, false)
	dbuf := dstSite.Space.Alloc(size, false)

	var bw float64
	cl.K.Spawn("stream", func(p *sim.Proc) {
		wmr := writerSite.Ctx.RegisterMR(p, wbuf.Addr(), size)
		dmr := dstSite.Ctx.RegisterMR(p, dbuf.Addr(), size)
		total := window * iters
		done := 0
		t0 := p.Now()
		for i := 0; i < total; i++ {
			err := writerSite.Ctx.PostWrite(p, verbs.WriteOp{
				LocalKey: wmr.LKey(), LocalAddr: wbuf.Addr(),
				RemoteKey: dmr.RKey(), RemoteAddr: dbuf.Addr(), Size: size,
				OnRemoteComplete: sim.Func(func(sim.Time) { done++ }),
			})
			if err != nil {
				panic(err)
			}
		}
		for done < total {
			p.Sleep(200)
		}
		elapsed := p.Now() - t0
		bw = float64(total*size) / float64(elapsed) // bytes per ns == GB/s
	})
	cl.K.Run()
	cl.K.Shutdown()
	return bw
}

// MeasureRegistration reproduces Figure 5: the cost of the host-side GVMI
// registration and of the DPU-side cross-registration as a function of
// buffer size. Fresh buffers are used for every sample so no cache hides
// the cost.
func MeasureRegistration(sizes []int) []RegistrationRow {
	rig := newMicroRig()
	cl := rig.cl
	host := cl.NewHostSite(0, "host")
	dpu := cl.NewDPUSite(0, "proxy")
	id := cl.GVMI.GenerateID(dpu.Ctx)

	rows := make([]RegistrationRow, 0, len(sizes))
	cl.K.Spawn("reg", func(p *sim.Proc) {
		for _, size := range sizes {
			buf := host.Space.Alloc(size, false)
			t0 := p.Now()
			info, err := cl.GVMI.RegisterHost(p, host.Ctx, buf.Addr(), size, id)
			if err != nil {
				panic(err)
			}
			hostCost := p.Now() - t0
			t0 = p.Now()
			if _, err := cl.GVMI.CrossRegister(p, dpu.Ctx, info); err != nil {
				panic(err)
			}
			crossCost := p.Now() - t0
			rows = append(rows, RegistrationRow{Size: size, HostReg: hostCost, CrossReg: crossCost})
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	return rows
}

// SizeLabel formats a byte count the way OMB tables do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Pow2Sizes returns powers of two from lo to hi inclusive.
func Pow2Sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s <<= 1 {
		out = append(out, s)
	}
	return out
}
