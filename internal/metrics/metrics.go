// Package metrics is the observability layer of the simulated cluster: a
// registry of typed counters, gauges and log₂-bucketed virtual-time
// histograms keyed by (layer, entity, name). A *Registry is attached via
// cluster.Config.Metrics and handed to every layer (fabric endpoints, the
// verbs registry, registration caches, the offload framework, the MPI
// library); each layer holds typed handles and bumps them as events happen.
//
// The design follows the span.Collector nil-safety discipline: a nil *Registry
// hands out nil handles, and every handle method is nil-safe, so a build
// without metrics pays nothing and — crucially — no method ever consumes
// virtual time, so enabling metrics cannot move a single simulated
// timestamp. Both properties are enforced bit-exactly against the fig13
// pinned timings (internal/bench).
//
// Snapshots export deterministically (keys sorted) as BENCH-compatible JSON
// and as Prometheus text format; see export.go. A Recorder (series.go)
// samples watched series into virtual-time buckets over a run.
package metrics

import (
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Key identifies one series: the layer that owns it ("fabric", "verbs",
// "regcache", "core", "mpi"), the entity within the layer (an endpoint,
// cache or process name; "all" for layer-wide aggregates) and the metric
// name (snake_case, with a unit suffix such as _ns where applicable).
//
// Tenant is an optional fourth dimension for multi-tenant simulations: the
// job the sample is attributed to. The empty string means "untenanted" and
// is what every legacy series carries — it sorts first and is omitted from
// exports, so single-job runs produce byte-identical output with or without
// the dimension existing.
type Key struct {
	Layer  string
	Entity string
	Name   string
	Tenant string
}

// less orders keys for deterministic export.
func (k Key) less(o Key) bool {
	if k.Layer != o.Layer {
		return k.Layer < o.Layer
	}
	if k.Entity != o.Entity {
		return k.Entity < o.Entity
	}
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	return k.Tenant < o.Tenant
}

// Counter is a monotonically increasing int64. All methods are nil-safe; a
// nil handle (from a nil registry) discards everything.
type Counter struct {
	v int64
}

// Inc adds one; nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n; nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count; nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-written float64 (queue depths, pool sizes). All methods
// are nil-safe.
//
// A gauge remembers which write kind was used (Set vs SetMax) so that
// Registry.Merge can reproduce serial semantics when per-job registries are
// combined: Set-gauges take the last merged writer's value, SetMax-gauges
// take the maximum. Each series should stick to one write kind.
type Gauge struct {
	v        float64
	wroteSet bool
	wroteMax bool
}

// Set records the current value; nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
		g.wroteSet = true
	}
}

// SetMax raises the gauge to v if v is larger (high-water marks); nil-safe.
func (g *Gauge) SetMax(v float64) {
	if g != nil {
		g.wroteMax = true
		if v > g.v {
			g.v = v
		}
	}
}

// Value returns the last written value; nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the number of log₂ buckets: bucket 0 holds zero-valued
// observations, bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). 63 buckets
// cover the full non-negative sim.Time range.
const histBuckets = 64

// Histogram accumulates virtual-time durations in log₂ buckets. All
// methods are nil-safe. Negative observations are clamped to zero (they do
// not occur in practice; the clamp keeps bucket math total).
type Histogram struct {
	count   int64
	sum     sim.Time
	buckets [histBuckets]int64
}

// Observe records one duration; nil-safe.
func (h *Histogram) Observe(d sim.Time) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.count++
	h.sum += d
	h.buckets[bits.Len64(uint64(d))]++
}

// Count returns the number of observations; nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the total of all observations; nil-safe.
func (h *Histogram) Sum() sim.Time {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry owns every series of one simulation. The zero value is unusable;
// use NewRegistry. A nil *Registry is valid, hands out nil handles, and
// therefore disables the whole layer at zero cost (mirroring span.Collector).
//
// The simulation kernel is single-threaded, so plain maps and fields are
// race-free.
type Registry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[Key]*Counter),
		gauges:   make(map[Key]*Gauge),
		hists:    make(map[Key]*Histogram),
	}
}

// Enabled reports whether metrics are being recorded; nil-safe.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns (creating if needed) the counter for (layer, entity,
// name); nil-safe — a nil registry returns a nil handle. Series exist from
// first request, so zero-valued counters still export.
func (r *Registry) Counter(layer, entity, name string) *Counter {
	return r.CounterT(layer, entity, name, "")
}

// CounterT is Counter with a tenant label ("" = untenanted, identical to
// Counter); nil-safe.
func (r *Registry) CounterT(layer, entity, name, tenant string) *Counter {
	if r == nil {
		return nil
	}
	k := Key{Layer: layer, Entity: entity, Name: name, Tenant: tenant}
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for (layer, entity, name);
// nil-safe.
func (r *Registry) Gauge(layer, entity, name string) *Gauge {
	return r.GaugeT(layer, entity, name, "")
}

// GaugeT is Gauge with a tenant label ("" = untenanted); nil-safe.
func (r *Registry) GaugeT(layer, entity, name, tenant string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key{Layer: layer, Entity: entity, Name: name, Tenant: tenant}
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// MaxGauge returns the largest current value among every gauge named
// (layer, *, name) — any entity, any tenant — and whether at least one such
// gauge exists; nil-safe. Consumers that feed live load signals back into
// decisions (the feedback offload policy watches proxy queue-depth gauges)
// use it without having to know entity names. Map iteration order is
// irrelevant: max is order-independent, so reads stay deterministic.
func (r *Registry) MaxGauge(layer, name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	var max float64
	found := false
	for k, g := range r.gauges {
		if k.Layer != layer || k.Name != name {
			continue
		}
		if v := g.Value(); !found || v > max {
			max, found = v, true
		}
	}
	return max, found
}

// Histogram returns (creating if needed) the histogram for (layer, entity,
// name); nil-safe.
func (r *Registry) Histogram(layer, entity, name string) *Histogram {
	return r.HistogramT(layer, entity, name, "")
}

// HistogramT is Histogram with a tenant label ("" = untenanted); nil-safe.
func (r *Registry) HistogramT(layer, entity, name, tenant string) *Histogram {
	if r == nil {
		return nil
	}
	k := Key{Layer: layer, Entity: entity, Name: name, Tenant: tenant}
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Merge folds the series of src into r. It exists for the parallel sweep
// runner: each sweep job records into a private registry, and the runner
// merges them back in ascending sweep-index order, which reproduces the
// state a single shared registry would have reached serially:
//
//   - counters and histograms are additive, so merge order cannot matter;
//   - Set-gauges take the merging writer's value (last writer in merge
//     order == last writer in serial sweep order);
//   - SetMax-gauges take the maximum, which is order-independent.
//
// Series missing from r are created, preserving the "series exist from
// first request" export property. Merging a nil src is a no-op; r itself
// must be non-nil (merge targets are always live registries).
func (r *Registry) Merge(src *Registry) {
	if src == nil {
		return
	}
	for k, c := range src.counters {
		r.CounterT(k.Layer, k.Entity, k.Name, k.Tenant).Add(c.v)
	}
	for k, g := range src.gauges {
		dst := r.GaugeT(k.Layer, k.Entity, k.Name, k.Tenant)
		switch {
		case g.wroteSet:
			dst.Set(g.v)
		case g.wroteMax:
			dst.SetMax(g.v)
		}
	}
	for k, h := range src.hists {
		dst := r.HistogramT(k.Layer, k.Entity, k.Name, k.Tenant)
		dst.count += h.count
		dst.sum += h.sum
		for i, n := range h.buckets {
			dst.buckets[i] += n
		}
	}
}

// VisitCounters calls f for every counter series, in map order (callers
// needing determinism must be order-independent or sort); nil-safe. The
// Recorder uses the Visit methods to scan live handles on its sampling hot
// path without allocating key slices.
func (r *Registry) VisitCounters(f func(Key, *Counter)) {
	if r == nil {
		return
	}
	for k, c := range r.counters {
		f(k, c)
	}
}

// VisitGauges calls f for every gauge series, in map order; nil-safe.
func (r *Registry) VisitGauges(f func(Key, *Gauge)) {
	if r == nil {
		return
	}
	for k, g := range r.gauges {
		f(k, g)
	}
}

// VisitHistograms calls f for every histogram series, in map order;
// nil-safe.
func (r *Registry) VisitHistograms(f func(Key, *Histogram)) {
	if r == nil {
		return
	}
	for k, h := range r.hists {
		f(k, h)
	}
}

// sortedKeys returns the map keys in deterministic export order.
func sortedKeys[V any](m map[Key]V) []Key {
	out := make([]Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}
