package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

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

// DefaultWidth is the default bucket width: 50µs resolves the drift
// scenario's phase boundaries (1ms arrival, 9ms settle) exactly.
const DefaultWidth = 50 * sim.Microsecond

// SeriesKind is the per-bucket encoding of one series and its export tag.
// Exports order a key's series by kind, which is the tags' string order.
type SeriesKind string

const (
	// KindCounter stores the counter's per-bucket increase.
	KindCounter SeriesKind = "counter"
	// KindGauge stores the gauge's value at each bucket close.
	KindGauge SeriesKind = "gauge"
	// KindHistCount stores the histogram's per-bucket observation count.
	KindHistCount SeriesKind = "hist_count"
	// KindHistSum stores the histogram's per-bucket sum increase.
	KindHistSum SeriesKind = "hist_sum"
)

// histPart names the half of a histogram a series carries; exports append
// it to the series name.
func (k SeriesKind) histPart() (string, bool) { return strings.CutPrefix(string(k), "hist_") }

// seriesID identifies one recorded series: the registry key plus the
// encoding (histograms expand to two series).
type seriesID struct {
	key  Key
	kind SeriesKind
}

// Series is one recorded time series: one value per bucket from bucket
// First on — the increase over the bucket for monotone kinds (Deltas), the
// value at the bucket's close for KindGauge (Values).
type Series struct {
	Key    Key
	Kind   SeriesKind
	First  int
	Deltas []int64
	Values []float64

	last int64 // last sampled cumulative value (monotone kinds)
}

// value returns bucket First+i as a float, whatever the kind.
func (s *Series) value(i int) float64 {
	if s.Kind == KindGauge {
		return s.Values[i]
	}
	return float64(s.Deltas[i])
}

// grow appends v, doubling a full slice's capacity (plus one), so a series
// that closes 2^k buckets allocates at most k+1 times.
func grow[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		s = append(make([]E, 0, 2*len(s)+1), s...)
	}
	return append(s, v)
}

// Recorder turns one simulation's registry totals into virtual-time series:
// it samples the watched counters, gauges and histograms into fixed-width
// buckets on the kernel's tick hook (sim.Kernel.SetTick). The hook fires
// after the clock advances and before the event at the new timestamp
// dispatches, so a bucket [iW, (i+1)W) closes when the first event at or
// past its end runs, having seen every mutation inside it and none after.
// The hook only reads: it schedules nothing and consumes no virtual time.
//
// Each series is a slice that starts at the series' first bucket and grows
// by one value per closed bucket, 8 B each, so a run's whole history
// exports. Once a series has spare capacity, closing a bucket allocates
// nothing. Obtain one from NewRecorder; like the registry's handles, a nil
// *Recorder is valid and inert.
type Recorder struct {
	// Label is the "run" dimension of exports; may be empty.
	Label string
	// Devices maps per-node entity names ("n0.host", "proxy3") to device
	// profile names (cluster.DeviceLabels supplies it); exports tag
	// matching series with a device label. An empty map adds nothing.
	Devices map[string]string

	width sim.Time
	reg   *Registry // nil before Start and after finish
	index map[seriesID]*Series
	cur   int // lowest unclosed bucket
}

// NewRecorder returns an unstarted recorder with the given label and
// bucket width.
func NewRecorder(label string, width sim.Time) *Recorder {
	return &Recorder{Label: label, width: width, index: make(map[seriesID]*Series)}
}

// Start attaches the recorder to a kernel and registry: watched series that
// already exist are primed (their current totals become the zero point, so
// exported counters read "increase since attach") and the kernel's tick
// hook is armed on the bucket grid. Nil-safe; attaching with a nil registry
// records nothing.
func (r *Recorder) Start(k *sim.Kernel, reg *Registry) {
	if r == nil || k == nil || reg == nil {
		return
	}
	r.reg = reg
	r.cur = int(k.Now() / r.width)
	reg.VisitCounters(r.primeCounter)
	reg.VisitHistograms(r.primeHistogram)
	k.SetTick(r.next(), r.onTick)
}

// next returns the end of the lowest unclosed bucket.
func (r *Recorder) next() sim.Time { return sim.Time(r.cur+1) * r.width }

// watched reports whether a registry key is on the watchlist.
func watched(k Key) bool {
	for _, m := range watchlist {
		if m.layer == k.Layer && (m.name == "" || m.name == k.Name) {
			return true
		}
	}
	return false
}

// lookup returns (creating if needed) the series for one id; a new series
// starts at the bucket being closed. The steady-state path is a map hit.
func (r *Recorder) lookup(id seriesID) *Series {
	s := r.index[id]
	if s == nil {
		s = &Series{Key: id.key, Kind: id.kind, First: r.cur}
		r.index[id] = s
	}
	return s
}

// primeCounter records a pre-existing counter's total as its zero point.
func (r *Recorder) primeCounter(k Key, c *Counter) {
	if watched(k) {
		r.lookup(seriesID{k, KindCounter}).last = c.Value()
	}
}

// primeHistogram records a pre-existing histogram's totals as zero points.
func (r *Recorder) primeHistogram(k Key, h *Histogram) {
	if watched(k) {
		r.lookup(seriesID{k, KindHistCount}).last = h.Count()
		r.lookup(seriesID{k, KindHistSum}).last = int64(h.Sum())
	}
}

// pushTotal appends the increase of a monotone series since its last sample.
func (r *Recorder) pushTotal(id seriesID, v int64) {
	s := r.lookup(id)
	s.Deltas = grow(s.Deltas, v-s.last)
	s.last = v
}

// sampleCounter pushes one counter's increase into the closing bucket.
func (r *Recorder) sampleCounter(k Key, c *Counter) {
	if watched(k) {
		r.pushTotal(seriesID{k, KindCounter}, c.Value())
	}
}

// sampleGauge pushes one gauge's value at the closing bucket's end.
func (r *Recorder) sampleGauge(k Key, g *Gauge) {
	if watched(k) {
		s := r.lookup(seriesID{k, KindGauge})
		s.Values = grow(s.Values, g.Value())
	}
}

// sampleHistogram pushes one histogram's count and sum increases.
func (r *Recorder) sampleHistogram(k Key, h *Histogram) {
	if watched(k) {
		r.pushTotal(seriesID{k, KindHistCount}, h.Count())
		r.pushTotal(seriesID{k, KindHistSum}, int64(h.Sum()))
	}
}

// closeBucket samples every watched series into bucket r.cur, then
// advances the grid.
func (r *Recorder) closeBucket() {
	r.reg.VisitCounters(r.sampleCounter)
	r.reg.VisitGauges(r.sampleGauge)
	r.reg.VisitHistograms(r.sampleHistogram)
	r.cur++
}

// onTick is the kernel hook: close every bucket whose end has been
// reached. All applied mutations came from events before r.next() (the
// kernel fires the hook before dispatching the first event at or past it),
// so they belong to closed buckets; buckets the clock jumped clean over
// sample zero deltas and unchanged gauges by re-scanning.
func (r *Recorder) onTick(now sim.Time) sim.Time {
	for r.next() <= now {
		r.closeBucket()
	}
	return r.next()
}

// finish closes the final partial bucket so exports and window queries see
// mutations after the last grid boundary. Idempotent; the recorder must
// not keep running on a kernel after it.
func (r *Recorder) finish() {
	if r.reg != nil {
		r.closeBucket()
		r.reg = nil
	}
}

// bucketRange converts a virtual-time window to bucket indices: buckets
// whose start lies in [from, to).
func (r *Recorder) bucketRange(from, to sim.Time) (lo, hi int) {
	w := r.width
	return int((from + w - 1) / w), int((to + w - 1) / w)
}

// CounterIncrease returns the recorded increase of one counter series over
// the virtual-time window [from, to), summed over buckets starting inside
// the window; nil-safe.
func (r *Recorder) CounterIncrease(layer, entity, name, tenant string, from, to sim.Time) int64 {
	if r == nil {
		return 0
	}
	r.finish()
	s := r.index[seriesID{Key{Layer: layer, Entity: entity, Name: name, Tenant: tenant}, KindCounter}]
	if s == nil {
		return 0
	}
	lo, hi := r.bucketRange(from, to)
	var sum int64
	for i, d := range s.Deltas {
		if b := s.First + i; b >= lo && b < hi {
			sum += d
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
	for _, s := range r.index {
		if s.Kind != KindGauge || s.Key.Layer != layer || s.Key.Name != name {
			continue
		}
		for i, v := range s.Values {
			if b := s.First + i; b >= lo && b < hi && (!found || v > max) {
				max, found = v, true
			}
		}
	}
	return max, found
}

// Sorted returns the recorded series in export order (registry key order,
// then kind), closing the final partial bucket first; nil-safe. The slice
// is fresh but shares the series.
func (r *Recorder) Sorted() []*Series {
	if r == nil {
		return nil
	}
	r.finish()
	out := make([]*Series, 0, len(r.index))
	for _, s := range r.index {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Key != b.Key {
			return a.Key.less(b.Key)
		}
		return a.Kind < b.Kind
	})
	return out
}

// seriesLine is the JSONL schema of one exported series: the identifying
// dimensions, the bucket grid, and the per-bucket payload.
type seriesLine struct {
	Run         string    `json:"run,omitempty"`
	Layer       string    `json:"layer"`
	Entity      string    `json:"entity"`
	Name        string    `json:"name"`
	Tenant      string    `json:"tenant,omitempty"`
	Device      string    `json:"device,omitempty"`
	Kind        string    `json:"kind"`
	WidthNS     int64     `json:"width_ns"`
	FirstBucket int       `json:"first_bucket"`
	Deltas      []int64   `json:"deltas,omitempty"`
	Values      []float64 `json:"values,omitempty"`
}

// WriteSeriesJSONL writes every series of every recorder as one JSON object
// per line: recorders in argument order, series in key order. This is the
// full-fidelity format — bucket width in nanoseconds, exact per-bucket
// values — the other exports derive from.
func WriteSeriesJSONL(w io.Writer, recs ...*Recorder) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.Sorted() {
			k := s.Key
			if err := enc.Encode(seriesLine{Run: r.Label, Layer: k.Layer, Entity: k.Entity, Name: k.Name,
				Tenant: k.Tenant, Device: r.Devices[k.Entity], Kind: string(s.Kind), WidthNS: int64(r.width),
				FirstBucket: s.First, Deltas: s.Deltas, Values: s.Values}); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSeriesPrometheus writes the recorders as timestamped Prometheus text
// exposition: one sample per bucket per series, timestamped with the bucket
// end in integer milliseconds of virtual time (the format's unit, so
// sub-millisecond buckets share timestamps; JSONL is the full-fidelity
// export). Monotone kinds expose running totals so they read like scraped
// counters; gauges expose their sampled values.
func WriteSeriesPrometheus(w io.Writer, recs ...*Recorder) error {
	fam := promFamilies{}
	for _, r := range recs {
		for _, s := range r.Sorted() {
			name, typ := promName(s.Key.Layer, s.Key.Name), "counter"
			if p, ok := s.Kind.histPart(); ok {
				name += "_" + p
			}
			if s.Kind == KindGauge {
				typ = "gauge"
			}
			fam.header(w, name, typ, fmt.Sprintf("Simulated-cluster time series %q from layer %q (virtual-time buckets).",
				s.Key.Name, s.Key.Layer))
			lbl := promLabels(s.Key.Entity, "tenant", s.Key.Tenant, "device", r.Devices[s.Key.Entity], "run", r.Label)
			ms := func(i int) int64 { return int64(sim.Time(s.First+i+1)*r.width) / 1e6 }
			for i, v := range s.Values {
				fmt.Fprintf(w, "%s{%s} %g %d\n", name, lbl, v, ms(i))
			}
			var cum int64
			for i, d := range s.Deltas {
				cum += d
				fmt.Fprintf(w, "%s{%s} %d %d\n", name, lbl, cum, ms(i))
			}
		}
	}
	return nil
}

// ChromeCounterLines renders the recorder's series as Chrome trace counter
// events ("ph":"C") for span.WriteChromeTraceWith, so a span trace and the
// time series land in one trace file. A sample is emitted only when the
// series' value changes (plus the first and last bucket) — trace viewers
// hold counter tracks flat between samples. Monotone kinds plot per-bucket
// increases, the readable form for goodput/ops tracks; nil-safe.
func (r *Recorder) ChromeCounterLines() []string {
	var out []string
	for _, s := range r.Sorted() {
		name := s.Key.Layer + "/" + s.Key.Entity + "/" + s.Key.Name
		if s.Key.Tenant != "" {
			name += "/" + s.Key.Tenant
		}
		if p, ok := s.Kind.histPart(); ok {
			name += ":" + p
		}
		if r.Label != "" {
			name = r.Label + "/" + name
		}
		quoted, _ := json.Marshal(name)
		var prev float64
		for i, n := 0, len(s.Deltas)+len(s.Values); i < n; i++ {
			v := s.value(i)
			if i == 0 || i == n-1 || v != prev {
				endUS := float64(sim.Time(s.First+i+1)*r.width) / 1e3
				out = append(out, fmt.Sprintf(`{"ph":"C","pid":1,"tid":0,"ts":%.3f,"name":%s,"args":{"value":%g}}`,
					endUS, quoted, v))
			}
			prev = v
		}
	}
	return out
}
