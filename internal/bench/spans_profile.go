package bench

import "repro/internal/span"

// CollectSpans runs the OMB Ialltoall measurement with a fresh span
// collector attached and returns the collector alongside the timings. The
// collector holds the full causal record of the run — every collective root
// with its proxy, verbs and fabric descendants — ready for critical-path
// extraction or export.
func CollectSpans(opt Options, msgSize, warmup, iters int) (*span.Collector, NBCResult) {
	sc := span.New(0)
	opt.Spans = sc
	r := MeasureIalltoall(opt, msgSize, warmup, iters)
	return sc, r
}

// CollectChaosSpans is CollectSpans under deterministic fault injection:
// the span record then includes retransmitted flights, fallback execution
// and failover control traffic, attributed to the original roots.
func CollectChaosSpans(opt Options, rate float64, msgSize, warmup, iters int) (*span.Collector, ChaosResult) {
	sc := span.New(0)
	opt.Spans = sc
	r := MeasureChaosIalltoall(opt, rate, msgSize, warmup, iters)
	return sc, r
}
