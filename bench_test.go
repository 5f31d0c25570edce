// Benchmarks: one testing.B benchmark per paper table/figure. Each runs the
// corresponding experiment at a reduced, laptop-friendly scale and reports
// the headline simulated metrics via b.ReportMetric (virtual microseconds,
// overlap percentages, normalized ratios). cmd/offloadbench regenerates the
// full tables; EXPERIMENTS.md records paper-vs-measured at figure scale.
package repro_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/fft"
	"repro/internal/figures"
	"repro/internal/hpl"
	"repro/internal/stencil"
)

func BenchmarkFig02RDMALatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.MeasureRDMALatency(bench.SweepEnv{}, []int{8, 2048}, 10)
		b.ReportMetric(rows[0].HostHost.Micros(), "host-us")
		b.ReportMetric(rows[0].HostDPU.Micros(), "dpu-us")
	}
}

func BenchmarkFig03RDMABandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.MeasureRDMABandwidth(bench.SweepEnv{}, []int{4096, 4 << 20}, 64, 2)
		b.ReportMetric(rows[0].Normalized, "small-msg-norm")
		b.ReportMetric(rows[1].Normalized, "large-msg-norm")
	}
}

func BenchmarkFig04StagingPingpong(b *testing.B) {
	staging := baseline.StagingNoWarmupConfig()
	for i := 0; i < b.N; i++ {
		host := bench.MeasurePingpongNB(bench.Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI}, 256<<10, 2, 5)
		staged := bench.MeasurePingpongNB(bench.Options{Nodes: 2, PPN: 1, Scheme: baseline.NameBluesMPI, Core: &staging}, 256<<10, 2, 5)
		b.ReportMetric(host.Micros(), "host-us")
		b.ReportMetric(staged.Micros(), "staged-us")
		b.ReportMetric(float64(staged)/float64(host), "degradation")
	}
}

func BenchmarkFig05Registration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.MeasureRegistration([]int{64 << 10})
		b.ReportMetric(rows[0].HostReg.Micros(), "hostreg-us")
		b.ReportMetric(rows[0].CrossReg.Micros(), "crossreg-us")
	}
}

func BenchmarkFig11Stencil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		host := stencil.Run(bench.Options{Nodes: 4, PPN: 4, Scheme: baseline.NameIntelMPI}, 512, 1, 2)
		prop := stencil.Run(bench.Options{Nodes: 4, PPN: 4, Scheme: baseline.NameProposed}, 512, 1, 2)
		b.ReportMetric(float64(prop.Overall)/float64(host.Overall), "norm-time")
	}
}

func BenchmarkFig12StencilOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prop := stencil.Run(bench.Options{Nodes: 4, PPN: 4, Scheme: baseline.NameProposed}, 512, 1, 2)
		b.ReportMetric(prop.Overlap, "overlap-pct")
	}
}

func BenchmarkFig13Ialltoall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var overall [3]float64
		for j, scheme := range []string{baseline.NameBluesMPI, baseline.NameProposed, baseline.NameIntelMPI} {
			r := bench.MeasureIalltoall(bench.Options{Nodes: 4, PPN: 4, Scheme: scheme}, 64<<10, 4, 2)
			overall[j] = r.Overall.Micros()
		}
		b.ReportMetric(overall[0], "bluesmpi-us")
		b.ReportMetric(overall[1], "proposed-us")
		b.ReportMetric(overall[2], "intelmpi-us")
	}
}

func BenchmarkFig14IalltoallOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.MeasureIalltoall(bench.Options{Nodes: 4, PPN: 4, Scheme: baseline.NameProposed}, 64<<10, 4, 2)
		b.ReportMetric(r.Overlap, "overlap-pct")
	}
}

func BenchmarkFig15SimpleVsGroup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := bench.Options{Nodes: 4, PPN: 8, Scheme: baseline.NameProposed}
		simple := bench.MeasureScatterDest(opt, 16<<10, 2, 2, true)
		group := bench.MeasureScatterDest(opt, 16<<10, 2, 2, false)
		b.ReportMetric(simple.Overall.Micros(), "simple-us")
		b.ReportMetric(group.Overall.Micros(), "group-us")
	}
}

func BenchmarkFig16P3DFFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var totals [3]float64
		for j, scheme := range []string{baseline.NameBluesMPI, baseline.NameProposed, baseline.NameIntelMPI} {
			r := fft.RunBench(bench.Options{Nodes: 4, PPN: 4, Scheme: scheme}, 64, 64, 128, 0, 2)
			totals[j] = float64(r.Total)
		}
		b.ReportMetric(totals[0]/totals[2], "bluesmpi-norm")
		b.ReportMetric(totals[1]/totals[2], "proposed-norm")
	}
}

func BenchmarkFig16cProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := fft.RunBench(bench.Options{Nodes: 4, PPN: 4, Scheme: baseline.NameProposed}, 64, 64, 128, 0, 2)
		b.ReportMetric(r.Compute.Micros(), "compute-us")
		b.ReportMetric(r.MPITime.Micros(), "mpi-us")
	}
}

func BenchmarkFig17HPL(b *testing.B) {
	const n, nb = 4096, 256
	for i := 0; i < b.N; i++ {
		var totals []float64
		for _, v := range figures.HPLVariants {
			par := hpl.DefaultParams(n, nb, v.Variant)
			r := hpl.Run(bench.Options{Nodes: 4, PPN: 4, Scheme: v.Scheme}, par)
			totals = append(totals, float64(r.Total))
		}
		b.ReportMetric(totals[1]/totals[0], "ibcast-norm")
		b.ReportMetric(totals[2]/totals[0], "bluesmpi-norm")
		b.ReportMetric(totals[3]/totals[0], "proposed-norm")
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationRegCache(b *testing.B) {
	on := baseline.ProposedConfig()
	off := baseline.ProposedConfig()
	off.RegCaches = false
	for i := 0; i < b.N; i++ {
		a := bench.MeasureScatterDest(bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed, Core: &on}, 64<<10, 2, 2, true)
		c := bench.MeasureScatterDest(bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed, Core: &off}, 64<<10, 2, 2, true)
		b.ReportMetric(a.Overall.Micros(), "cached-us")
		b.ReportMetric(c.Overall.Micros(), "uncached-us")
	}
}

func BenchmarkAblationGroupCache(b *testing.B) {
	on := baseline.ProposedConfig()
	off := baseline.ProposedConfig()
	off.GroupCache = false
	for i := 0; i < b.N; i++ {
		a := bench.MeasureScatterDest(bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed, Core: &on}, 16<<10, 2, 2, false)
		c := bench.MeasureScatterDest(bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed, Core: &off}, 16<<10, 2, 2, false)
		b.ReportMetric(a.Overall.Micros(), "cached-us")
		b.ReportMetric(c.Overall.Micros(), "uncached-us")
	}
}

func BenchmarkAblationMechanism(b *testing.B) {
	stg := baseline.StagingNoWarmupConfig()
	for i := 0; i < b.N; i++ {
		gvmi := bench.MeasureIalltoall(bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed}, 64<<10, 2, 2)
		staged := bench.MeasureIalltoall(bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameBluesMPI, Core: &stg}, 64<<10, 2, 2)
		b.ReportMetric(gvmi.PureComm.Micros(), "gvmi-us")
		b.ReportMetric(staged.PureComm.Micros(), "staging-us")
	}
}

func BenchmarkAblationProxies(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		n := n
		b.Run(bench.SizeLabel(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.MeasureIalltoall(bench.Options{
					Nodes: 2, PPN: 8, Scheme: baseline.NameProposed, ProxiesPerDPU: n,
				}, 64<<10, 2, 2)
				b.ReportMetric(r.Overall.Micros(), "overall-us")
			}
		})
	}
}

// Substrate micro-benchmarks: raw simulator throughput (real time, not
// virtual), useful when tuning the DES kernel.

func BenchmarkSimKernelEventThroughput(b *testing.B) {
	k := newBusyKernel(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// Two procs passing a turn through Cond: every wake-up is of the other
// proc, so each op is one hand-off — the blocked proc pops the other's
// wake-up on its own stack and yields to the Run caller, which resumes the
// other (two coroutine switches, none through the Go scheduler).
func BenchmarkSimProcContextSwitch(b *testing.B) {
	k := newPingPongProcs(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
