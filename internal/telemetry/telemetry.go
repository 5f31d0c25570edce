// Package telemetry is the virtual-time flight recorder: it turns the
// metrics registry's end-of-run totals into time series by sampling watched
// counters, gauges and histograms into fixed-width virtual-time buckets.
//
// The recorder rides the kernel's tick hook (sim.Kernel.SetTick), which
// fires after the clock advances and before the event at the new timestamp
// dispatches — so a bucket [iW, (i+1)W) closes exactly when the first event
// at or past its end runs, having seen every mutation inside the bucket and
// none after it. The hook observes only: it schedules nothing, consumes no
// virtual time, and therefore cannot move a simulated timestamp (guarded
// bit-exactly against the fig13 pinned timings in internal/bench).
//
// Storage is bounded: each series is a fixed-capacity ring of per-bucket
// values — deltas for monotone series (counters, histogram count/sum),
// absolute samples for gauges. When the ring wraps, the oldest bucket is
// folded into a base offset (counters) or dropped (gauges), so memory is
// O(watched series × ring capacity) regardless of run length.
//
// The sampling hot path allocates nothing in steady state: series handles
// are resolved through a map keyed by value structs, the registry is walked
// with pre-bound method values, and ring pushes are in-place (enforced by
// an allocation-budget test). Like metrics and spans, a nil *Recorder is
// valid and inert.
package telemetry

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// watchlist selects the registry series a recorder samples: fabric
// per-endpoint goodput, proxy backlog (total and per-tenant) plus
// cross-tenant HOL wait, verbs retries, every policy counter (decides,
// probes, re-probes), and every SLO tracker series. A key's layer must
// match exactly; an empty name matches every series in the layer.
var watchlist = []struct{ layer, name string }{
	{"fabric", "msgs_tx"},
	{"fabric", "bytes_tx"},
	{"fabric", "msgs_rx"},
	{"fabric", "bytes_rx"},
	{"core", "queue_depth"},
	{"core", "tenant_queue_depth"},
	{"core", "cross_tenant_wait_ns"},
	{"verbs", "retries"},
	{"policy", ""},
	{"slo", ""},
}

// Config tunes one recorder (and every recorder of a Timeline).
type Config struct {
	// Width is the bucket width in virtual time. 0 means DefaultWidth.
	Width sim.Time
	// Buckets is the ring capacity per series — the number of most-recent
	// buckets retained. 0 means DefaultBuckets.
	Buckets int
}

// DefaultWidth is the default bucket width: 50µs resolves the drift
// scenario's phase boundaries (1ms arrival, 9ms settle) exactly.
const DefaultWidth = 50 * sim.Microsecond

// DefaultBuckets is the default per-series ring capacity (4096 buckets ×
// 50µs ≈ 205ms of history at the default width).
const DefaultBuckets = 4096

func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = DefaultWidth
	}
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
	return c
}

// SeriesKind distinguishes the per-bucket encoding of one series.
type SeriesKind uint8

const (
	// KindCounter stores the counter's per-bucket increase.
	KindCounter SeriesKind = iota
	// KindGauge stores the gauge's value at each bucket close.
	KindGauge
	// KindHistCount stores the histogram's per-bucket observation count.
	KindHistCount
	// KindHistSum stores the histogram's per-bucket sum increase.
	KindHistSum
)

// String returns the export tag of the kind.
func (k SeriesKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistCount:
		return "hist_count"
	case KindHistSum:
		return "hist_sum"
	}
	return "unknown"
}

// seriesID identifies one recorded series: the registry key plus the
// encoding (histograms expand to two series).
type seriesID struct {
	key  metrics.Key
	kind SeriesKind
}

// Series is one recorded time series: a ring of per-bucket values covering
// buckets [Start, Start+Len) of the recorder's fixed-width grid.
type Series struct {
	Key  metrics.Key
	Kind SeriesKind

	started bool
	start   int   // bucket index of the oldest retained value
	n       int   // live buckets (≤ ring capacity)
	head    int   // ring position of bucket `start`
	base    int64 // cumulative increase folded out of evicted buckets
	last    int64 // last sampled cumulative value (monotone kinds)

	iv []int64   // per-bucket values, monotone kinds (ring, cap=Buckets)
	fv []float64 // per-bucket values, KindGauge (ring, cap=Buckets)
}

// Start returns the bucket index of the oldest retained value.
func (s *Series) Start() int { return s.start }

// Len returns the number of retained buckets.
func (s *Series) Len() int { return s.n }

// Base returns the cumulative increase evicted from the ring (monotone
// kinds; always 0 until the ring wraps).
func (s *Series) Base() int64 { return s.base }

// IntAt returns the value of bucket `start+i` for monotone kinds.
func (s *Series) IntAt(i int) int64 { return s.iv[(s.head+i)%len(s.iv)] }

// FloatAt returns the value of bucket `start+i` for KindGauge.
func (s *Series) FloatAt(i int) float64 { return s.fv[(s.head+i)%len(s.fv)] }

// push appends one bucket value, evicting the oldest when the ring is full.
func (s *Series) push(bucket int, iv int64, fv float64) {
	if !s.started {
		s.started = true
		s.start = bucket
	}
	if s.Kind == KindGauge {
		if s.n == len(s.fv) {
			s.start++
			s.head = (s.head + 1) % len(s.fv)
			s.n--
		}
		s.fv[(s.head+s.n)%len(s.fv)] = fv
		s.n++
		return
	}
	if s.n == len(s.iv) {
		s.base += s.iv[s.head]
		s.start++
		s.head = (s.head + 1) % len(s.iv)
		s.n--
	}
	s.iv[(s.head+s.n)%len(s.iv)] = iv
	s.n++
}

// Recorder samples one simulation's registry into bucketed time series.
// The zero value is unusable; obtain one from Timeline.NewRecorder or
// NewRecorder. A nil *Recorder is valid and inert everywhere.
type Recorder struct {
	cfg   Config
	label string

	// devices maps per-node entity names ("n0.host", "proxy3") to device
	// profile names; exports tag matching series with a device label. Empty
	// (the default, and always on unprofiled fleets) adds nothing, so
	// pre-device exports are byte-identical.
	devices map[string]string

	reg    *metrics.Registry
	index  map[seriesID]*Series
	series []*Series // creation order; exports sort

	next     sim.Time // end of the lowest unclosed bucket
	cur      int      // bucket being closed during a sample scan
	finished bool

	// Pre-bound method values so the tick path passes stored funcs to the
	// registry Visit methods instead of allocating closures per tick.
	visitC func(metrics.Key, *metrics.Counter)
	visitG func(metrics.Key, *metrics.Gauge)
	visitH func(metrics.Key, *metrics.Histogram)
	primeC func(metrics.Key, *metrics.Counter)
	primeH func(metrics.Key, *metrics.Histogram)
}

// NewRecorder returns an unstarted recorder with the given label (the
// "run" dimension of exports; may be empty for single-run use).
func NewRecorder(label string, cfg Config) *Recorder {
	r := &Recorder{cfg: cfg.withDefaults(), label: label, index: make(map[seriesID]*Series)}
	r.visitC = r.sampleCounter
	r.visitG = r.sampleGauge
	r.visitH = r.sampleHistogram
	r.primeC = r.primeCounter
	r.primeH = r.primeHistogram
	return r
}

// Enabled reports whether the recorder records; nil-safe.
func (r *Recorder) Enabled() bool { return r != nil }

// Label returns the recorder's run label; nil-safe.
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Width returns the bucket width; nil-safe (0 when nil).
func (r *Recorder) Width() sim.Time {
	if r == nil {
		return 0
	}
	return r.cfg.Width
}

// SetDeviceLabels installs the entity-to-device-profile map exports use to
// tag per-node series (cluster.DeviceLabels supplies it). Nil-safe; an
// empty or nil map leaves every export byte-identical.
func (r *Recorder) SetDeviceLabels(m map[string]string) {
	if r == nil || len(m) == 0 {
		return
	}
	r.devices = m
}

// Device returns the device profile name of an entity ("" when unmapped);
// nil-safe.
func (r *Recorder) Device(entity string) string {
	if r == nil {
		return ""
	}
	return r.devices[entity]
}

// Start attaches the recorder to a kernel and registry: watched series that
// already exist are primed (their current totals become the zero point, so
// exported counters read "increase since attach") and the kernel's tick
// hook is armed on the bucket grid. Nil-safe; attaching with a nil registry
// records nothing.
func (r *Recorder) Start(k *sim.Kernel, reg *metrics.Registry) {
	if r == nil || k == nil || reg == nil {
		return
	}
	r.reg = reg
	reg.VisitCounters(r.primeC)
	reg.VisitHistograms(r.primeH)
	// First boundary strictly after the current time, on the grid.
	first := (k.Now()/r.cfg.Width + 1) * r.cfg.Width
	r.next = first
	k.SetTick(first, r.onTick)
}

// watched reports whether a registry key is on the watchlist.
func watched(k metrics.Key) bool {
	for _, m := range watchlist {
		if m.layer == k.Layer && (m.name == "" || m.name == k.Name) {
			return true
		}
	}
	return false
}

// lookup returns (creating if needed) the series for one id. Creation
// happens once per series — the steady-state path is a pure map hit.
func (r *Recorder) lookup(id seriesID) *Series {
	s := r.index[id]
	if s == nil {
		s = &Series{Key: id.key, Kind: id.kind}
		if id.kind == KindGauge {
			s.fv = make([]float64, r.cfg.Buckets)
		} else {
			s.iv = make([]int64, r.cfg.Buckets)
		}
		r.index[id] = s
		r.series = append(r.series, s)
	}
	return s
}

// primeCounter records a pre-existing counter's total as its zero point.
func (r *Recorder) primeCounter(k metrics.Key, c *metrics.Counter) {
	if !watched(k) {
		return
	}
	r.lookup(seriesID{k, KindCounter}).last = c.Value()
}

// primeHistogram records a pre-existing histogram's totals as zero points.
func (r *Recorder) primeHistogram(k metrics.Key, h *metrics.Histogram) {
	if !watched(k) {
		return
	}
	r.lookup(seriesID{k, KindHistCount}).last = h.Count()
	r.lookup(seriesID{k, KindHistSum}).last = int64(h.Sum())
}

// sampleCounter pushes one counter's increase into the closing bucket.
func (r *Recorder) sampleCounter(k metrics.Key, c *metrics.Counter) {
	if !watched(k) {
		return
	}
	s := r.lookup(seriesID{k, KindCounter})
	v := c.Value()
	s.push(r.cur, v-s.last, 0)
	s.last = v
}

// sampleGauge pushes one gauge's value at the closing bucket's end.
func (r *Recorder) sampleGauge(k metrics.Key, g *metrics.Gauge) {
	if !watched(k) {
		return
	}
	r.lookup(seriesID{k, KindGauge}).push(r.cur, 0, g.Value())
}

// sampleHistogram pushes one histogram's count and sum increases.
func (r *Recorder) sampleHistogram(k metrics.Key, h *metrics.Histogram) {
	if !watched(k) {
		return
	}
	sc := r.lookup(seriesID{k, KindHistCount})
	v := h.Count()
	sc.push(r.cur, v-sc.last, 0)
	sc.last = v
	ss := r.lookup(seriesID{k, KindHistSum})
	v = int64(h.Sum())
	ss.push(r.cur, v-ss.last, 0)
	ss.last = v
}

// closeBucket samples every watched series into the bucket ending at
// r.next, then advances the grid.
func (r *Recorder) closeBucket() {
	r.cur = int(r.next/r.cfg.Width) - 1
	r.reg.VisitCounters(r.visitC)
	r.reg.VisitGauges(r.visitG)
	r.reg.VisitHistograms(r.visitH)
	r.next += r.cfg.Width
}

// onTick is the kernel hook: close every bucket whose end has been
// reached. All applied mutations came from events before r.next (the
// kernel fires the hook before dispatching the first event at or past it),
// so they belong to closed buckets; buckets the clock jumped clean over
// sample zero deltas and unchanged gauges by re-scanning.
func (r *Recorder) onTick(now sim.Time) sim.Time {
	for r.next <= now {
		r.closeBucket()
	}
	return r.next
}

// finish closes the final partial bucket so exports and window queries see
// mutations after the last grid boundary. Idempotent; nil-safe. The
// recorder must not keep running on a kernel after finish.
func (r *Recorder) finish() {
	if r == nil || r.finished {
		return
	}
	r.finished = true
	if r.reg == nil {
		return
	}
	r.closeBucket()
}

// bucketRange converts a virtual-time window to bucket indices: buckets
// whose start lies in [from, to).
func (r *Recorder) bucketRange(from, to sim.Time) (lo, hi int) {
	w := r.cfg.Width
	lo = int((from + w - 1) / w)
	hi = int((to + w - 1) / w)
	return lo, hi
}

// CounterIncrease returns the recorded increase of one counter series over
// the virtual-time window [from, to), summed over buckets starting inside
// the window; nil-safe. Buckets evicted from the ring are not counted.
func (r *Recorder) CounterIncrease(layer, entity, name, tenant string, from, to sim.Time) int64 {
	if r == nil {
		return 0
	}
	r.finish()
	s := r.index[seriesID{metrics.Key{Layer: layer, Entity: entity, Name: name, Tenant: tenant}, KindCounter}]
	if s == nil {
		return 0
	}
	lo, hi := r.bucketRange(from, to)
	var sum int64
	for i := 0; i < s.n; i++ {
		if b := s.start + i; b >= lo && b < hi {
			sum += s.IntAt(i)
		}
	}
	return sum
}

// MaxGaugeRange returns the maximum recorded value among every gauge series
// named (layer, *, name) — any entity, any tenant — over the window
// [from, to), and whether any sample fell inside it; nil-safe.
func (r *Recorder) MaxGaugeRange(layer, name string, from, to sim.Time) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.finish()
	lo, hi := r.bucketRange(from, to)
	var max float64
	found := false
	for _, s := range r.series {
		if s.Kind != KindGauge || s.Key.Layer != layer || s.Key.Name != name {
			continue
		}
		for i := 0; i < s.n; i++ {
			if b := s.start + i; b >= lo && b < hi {
				if v := s.FloatAt(i); !found || v > max {
					max, found = v, true
				}
			}
		}
	}
	return max, found
}

// Sorted returns the recorded series in deterministic export order (by
// registry key, then kind), closing the final partial bucket first;
// nil-safe. The slice is freshly sorted but shares the underlying series.
func (r *Recorder) Sorted() []*Series {
	if r == nil {
		return nil
	}
	r.finish()
	out := make([]*Series, len(r.series))
	copy(out, r.series)
	sortSeries(out)
	return out
}
