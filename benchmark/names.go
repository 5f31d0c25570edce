package main

// metricDef is the glossary entry of one metric. BENCHMARK.json carries
// name/unit/better(/bound); clock and meaning are documented in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Clock  string  // "host" or "simulated"
	Exact  bool    // repeats exactly for one seed (a count, not a time)
}

// endToEnd are the metrics a user of the simulator sees, one value per
// workload, measured with every sink nil. The bounds are sized from two
// ten-seed sets of runs of one commit on the 2-core recording host: the
// spread of ten runs (interquartile distance over median) reached 7 % for
// the timings and for peak RSS, with a 7 % shift between the two sets'
// medians, and 0.4 % for the allocation counts; each bound is at least three
// times the spread seen, so that the benchmark does not flag its own noise.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
	{Name: "sim_msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Clock: "host"},
	{Name: "allocs_per_msg", Unit: "allocs/msg", Better: "lower", Bound: 0.02, Clock: "host"},
	{Name: "alloc_bytes_per_msg", Unit: "B/msg", Better: "lower", Bound: 0.02, Clock: "host"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25, Clock: "host"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: "host"},
}

// perLayer lists every per-layer metric in the order the tables print them.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	for _, l := range cpuLayers {
		d = append(d, metricDef{Name: l + ".cpu_share_pct", Unit: "%", Better: "lower", Clock: "host"})
	}
	for _, n := range []string{"go.handoff_incl_pct", "go.alloc_incl_pct", "go.map_incl_pct"} {
		d = append(d, metricDef{Name: n, Unit: "%", Better: "lower", Clock: "host"})
	}
	for _, c := range []struct{ name, unit, better string }{
		{"fabric.msgs", "count", "lower"},
		{"fabric.bytes", "bytes", "lower"},
		{"verbs.retries", "count", "lower"},
		{"regcache.hit_ratio", "ratio", "higher"},
		{"core.group_hit_ratio", "ratio", "higher"},
		{"core.queue_depth_max", "count", "lower"},
		{"core.tenant_dispatches", "count", "lower"},
		{"mpi.eager_msgs", "count", "lower"},
		{"mpi.rndv_msgs", "count", "lower"},
		{"mpi.shm_msgs", "count", "lower"},
		{"policy.decisions", "count", "lower"},
		{"policy.reprobes", "count", "lower"},
	} {
		d = append(d, metricDef{Name: c.name, Unit: c.unit, Better: c.better, Clock: "simulated", Exact: true})
	}
	d = append(d, metricDef{Name: "virt.overall_us", Unit: "us", Better: "lower", Clock: "simulated", Exact: true})
	for _, l := range critLayers {
		d = append(d, metricDef{Name: "virt.crit_pct." + l, Unit: "%", Better: "lower", Clock: "simulated", Exact: true})
	}
	d = append(d, metricDef{Name: "span.dropped", Unit: "count", Better: "lower", Clock: "simulated", Exact: true})
	d = append(d,
		metricDef{Name: "proc.cpu_s", Unit: "s", Better: "lower", Clock: "host"},
		metricDef{Name: "proc.sys_s", Unit: "s", Better: "lower", Clock: "host"},
		metricDef{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Clock: "host"},
		metricDef{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Clock: "host"},
		metricDef{Name: "proc.alloc_mb", Unit: "MB", Better: "lower", Clock: "host"},
		metricDef{Name: "proc.goroutines_peak", Unit: "count", Better: "lower", Clock: "host"},
		metricDef{Name: "obs.tax_ratio", Unit: "ratio", Better: "lower", Clock: "host"},
		metricDef{Name: "prof.overhead_ratio", Unit: "ratio", Better: "lower", Clock: "host"},
	)
	for _, b := range microBenches {
		d = append(d,
			metricDef{Name: b.Name + "_ns", Unit: "ns/op", Better: "lower", Clock: "host"},
			metricDef{Name: b.Name + "_allocs", Unit: "allocs/op", Better: "lower", Clock: "host"},
		)
	}
	return d
}
