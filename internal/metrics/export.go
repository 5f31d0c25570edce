package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SnapshotSchema is the schema tag of exported metric snapshots; bump it
// when the JSON layout changes incompatibly.
const SnapshotSchema = "offload-metrics/v1"

// CounterPoint is one exported counter value. Tenant is the optional job
// label of multi-tenant runs; it is omitted when empty so untenanted
// snapshots are byte-identical to the pre-tenant format.
type CounterPoint struct {
	Layer  string `json:"layer"`
	Entity string `json:"entity"`
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	Value  int64  `json:"value"`
}

// GaugePoint is one exported gauge value.
type GaugePoint struct {
	Layer  string  `json:"layer"`
	Entity string  `json:"entity"`
	Name   string  `json:"name"`
	Tenant string  `json:"tenant,omitempty"`
	Value  float64 `json:"value"`
}

// BucketPoint is one histogram bucket: Count observations with value < Lt
// (and ≥ the previous bucket's bound). Only non-empty buckets export.
type BucketPoint struct {
	Lt    int64 `json:"lt"` // exclusive upper bound (2^i; 1 for the zero bucket)
	Count int64 `json:"count"`
}

// HistogramPoint is one exported histogram.
type HistogramPoint struct {
	Layer   string        `json:"layer"`
	Entity  string        `json:"entity"`
	Name    string        `json:"name"`
	Tenant  string        `json:"tenant,omitempty"`
	Count   int64         `json:"count"`
	SumNS   int64         `json:"sum_ns"`
	Buckets []BucketPoint `json:"buckets,omitempty"`
}

// Snapshot is the full serializable state of a registry at one instant,
// deterministically ordered.
type Snapshot struct {
	Schema     string           `json:"schema"`
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot captures every series; nil-safe (a nil registry snapshots
// empty). The result is self-contained — mutating the registry afterwards
// does not affect it.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:     SnapshotSchema,
		Counters:   []CounterPoint{},
		Gauges:     []GaugePoint{},
		Histograms: []HistogramPoint{},
	}
	if r == nil {
		return s
	}
	for _, k := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterPoint{k.Layer, k.Entity, k.Name, k.Tenant, r.counters[k].v})
	}
	for _, k := range sortedKeys(r.gauges) {
		s.Gauges = append(s.Gauges, GaugePoint{k.Layer, k.Entity, k.Name, k.Tenant, r.gauges[k].v})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		hp := HistogramPoint{Layer: k.Layer, Entity: k.Entity, Name: k.Name, Tenant: k.Tenant,
			Count: h.count, SumNS: int64(h.sum)}
		for i, n := range h.buckets {
			if n == 0 {
				continue
			}
			hp.Buckets = append(hp.Buckets, BucketPoint{Lt: int64(1) << uint(i), Count: n})
		}
		s.Histograms = append(s.Histograms, hp)
	}
	return s
}

// Has reports whether the snapshot contains at least one series owned by
// the given layer (any metric type).
func (s Snapshot) Has(layer string) bool {
	for _, c := range s.Counters {
		if c.Layer == layer {
			return true
		}
	}
	for _, g := range s.Gauges {
		if g.Layer == layer {
			return true
		}
	}
	for _, h := range s.Histograms {
		if h.Layer == layer {
			return true
		}
	}
	return false
}

// CounterValue returns the exported value of one untenanted counter series
// (0 if absent).
func (s Snapshot) CounterValue(layer, entity, name string) int64 {
	return s.CounterValueT(layer, entity, name, "")
}

// CounterValueT returns the exported value of one counter series under a
// tenant label (0 if absent; "" matches untenanted series).
func (s Snapshot) CounterValueT(layer, entity, name, tenant string) int64 {
	for _, c := range s.Counters {
		if c.Layer == layer && c.Entity == entity && c.Name == name && c.Tenant == tenant {
			return c.Value
		}
	}
	return 0
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseSnapshot decodes and validates a JSON snapshot (the round-trip
// inverse of WriteJSON).
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("metrics: invalid snapshot JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// Validate checks schema conformance: the schema tag, non-empty keys, and
// internally consistent histograms.
func (s Snapshot) Validate() error {
	if s.Schema != SnapshotSchema {
		return fmt.Errorf("metrics: schema %q, want %q", s.Schema, SnapshotSchema)
	}
	checkKey := func(kind, layer, entity, name string) error {
		if layer == "" || entity == "" || name == "" {
			return fmt.Errorf("metrics: %s with empty key (%q,%q,%q)", kind, layer, entity, name)
		}
		return nil
	}
	for _, c := range s.Counters {
		if err := checkKey("counter", c.Layer, c.Entity, c.Name); err != nil {
			return err
		}
		if c.Value < 0 {
			return fmt.Errorf("metrics: counter %s/%s/%s negative: %d", c.Layer, c.Entity, c.Name, c.Value)
		}
	}
	for _, g := range s.Gauges {
		if err := checkKey("gauge", g.Layer, g.Entity, g.Name); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := checkKey("histogram", h.Layer, h.Entity, h.Name); err != nil {
			return err
		}
		var n int64
		for _, b := range h.Buckets {
			n += b.Count
		}
		if n != h.Count {
			return fmt.Errorf("metrics: histogram %s/%s/%s bucket sum %d != count %d",
				h.Layer, h.Entity, h.Name, n, h.Count)
		}
	}
	return nil
}

// promName builds the Prometheus metric name offload_<layer>_<name>, with
// any character outside [a-zA-Z0-9_] replaced by '_'.
func promName(layer, name string) string {
	mangle := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				return r
			}
			return '_'
		}, s)
	}
	return "offload_" + mangle(layer) + "_" + mangle(name)
}

// promLabel renders one label value in Prometheus text exposition format.
// The format defines exactly three escapes inside a quoted label value —
// backslash, double-quote and newline. Go's %q verb is NOT equivalent: it
// escapes non-ASCII and control characters Go-style (\t, é, ...),
// which Prometheus parsers reject or misread.
func promLabel(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// promLabels renders the label set of one series: always the entity label,
// then each (name, value) pair whose value is non-empty — the tenant, and
// for time series the device and run. Untenanted series emit the exact
// pre-tenant label set, so legacy exports are byte-identical.
func promLabels(entity string, pairs ...string) string {
	s := "entity=" + promLabel(entity)
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i+1] != "" {
			s += "," + pairs[i] + "=" + promLabel(pairs[i+1])
		}
	}
	return s
}

// promFamilies writes the # HELP and # TYPE header lines of each metric
// family exactly once, as the exposition format requires.
type promFamilies map[string]bool

func (f promFamilies) header(w io.Writer, name, typ, help string) {
	if !f[name] {
		f[name] = true
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
}

// promHelp is the # HELP text of one metric family: where the series came
// from inside the simulated cluster. Kept to the family's (layer, name) —
// both are shared by every series merged under one Prometheus name.
func promHelp(layer, name, typ string) string {
	return fmt.Sprintf("Simulated-cluster %s %q from layer %q.", typ, name, layer)
}

// WritePrometheus writes the snapshot in Prometheus text exposition format.
// Entities become the "entity" label (tenanted series add a "tenant" label);
// histogram bucket bounds are emitted as cumulative le="..." series in
// virtual nanoseconds. Each metric family is preceded by # HELP and # TYPE
// header lines, emitted exactly once per family as the exposition format
// requires. Series order follows the snapshot's sorted key order, so output
// is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	fam := promFamilies{}
	for _, c := range s.Counters {
		n := promName(c.Layer, c.Name)
		fam.header(w, n, "counter", promHelp(c.Layer, c.Name, "counter"))
		fmt.Fprintf(w, "%s{%s} %d\n", n, promLabels(c.Entity, "tenant", c.Tenant), c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Layer, g.Name)
		fam.header(w, n, "gauge", promHelp(g.Layer, g.Name, "gauge"))
		fmt.Fprintf(w, "%s{%s} %g\n", n, promLabels(g.Entity, "tenant", g.Tenant), g.Value)
	}
	for _, h := range s.Histograms {
		n := promName(h.Layer, h.Name)
		fam.header(w, n, "histogram", promHelp(h.Layer, h.Name, "histogram"))
		lbl := promLabels(h.Entity, "tenant", h.Tenant)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{%s,le=%s} %d\n", n, lbl, promLabel(fmt.Sprint(b.Lt-1)), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", n, lbl, h.Count)
		fmt.Fprintf(w, "%s_sum{%s} %d\n", n, lbl, h.SumNS)
		fmt.Fprintf(w, "%s_count{%s} %d\n", n, lbl, h.Count)
	}
	return nil
}
