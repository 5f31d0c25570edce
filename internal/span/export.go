package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// jsonSpan is the JSONL wire form of one span. Field order is fixed by the
// struct, so output is deterministic line by line.
type jsonSpan struct {
	ID     ID              `json:"id"`
	Parent ID              `json:"parent,omitempty"`
	Class  string          `json:"class"`
	Entity string          `json:"entity"`
	Layer  string          `json:"layer"`
	Name   string          `json:"name"`
	Begin  sim.Time        `json:"begin_ns"`
	End    sim.Time        `json:"end_ns"`
	Open   bool            `json:"open,omitempty"`
	Attrs  json.RawMessage `json:"attrs,omitempty"`
}

func encodeAttrs(attrs []Attr) json.RawMessage {
	if len(attrs) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(a.Key)
		b.Write(k)
		b.WriteByte(':')
		if a.IsInt {
			fmt.Fprintf(&b, "%d", a.Int)
		} else {
			v, _ := json.Marshal(a.Str)
			b.Write(v)
		}
	}
	b.WriteByte('}')
	return json.RawMessage(b.String())
}

// WriteJSONL writes every recorded span as one JSON object per line, in
// creation (= deterministic) order. Open spans are marked "open" with
// end_ns equal to begin_ns.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i := range c.spans {
		s := &c.spans[i]
		js := jsonSpan{
			ID: s.ID, Parent: s.Parent, Class: s.Class.String(),
			Entity: s.Entity, Layer: s.Layer, Name: s.Name,
			Begin: s.Begin, End: s.End, Open: !s.Ended,
			Attrs: encodeAttrs(s.Attrs),
		}
		if !s.Ended {
			js.End = s.Begin
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	return nil
}

// WriteTimeline renders the recorded spans as the paper's Figure-1 listing:
// one "time entity layer.name attrs" row per span, ordered by begin time
// with creation order breaking ties. It returns the first write error.
func (c *Collector) WriteTimeline(w io.Writer) error {
	if c == nil {
		return nil
	}
	rows := make([]*Span, len(c.spans))
	entW := 0
	for i := range c.spans {
		rows[i] = &c.spans[i]
		entW = max(entW, len(rows[i].Entity))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Begin < rows[j].Begin })
	for _, s := range rows {
		var b strings.Builder
		fmt.Fprintf(&b, "%12s  %-*s  %s.%s", s.Begin, entW, s.Entity, s.Layer, s.Name)
		for _, a := range s.Attrs {
			if a.IsInt {
				fmt.Fprintf(&b, " %s=%d", a.Key, a.Int)
			} else {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTraceWith writes the span tree in Chrome trace-event JSON
// (chrome://tracing, Perfetto). Each entity becomes a named thread;
// spans become complete ("X") duration events, and every cross-entity
// parent/child edge becomes a flow-event pair ("s" on the parent's track
// at the child's begin, "f" on the child's track) so the causal chain —
// host call -> proxy -> HCA -> wire — is drawn as arrows across tracks.
// Timestamps are microseconds (floats), the format's native unit.
//
// The extra pre-rendered trace events are appended to the array — the merge
// point for the metrics recorder's counter ("C") events, so spans and time
// series land in one trace file. Each extra must be one complete JSON object
// without trailing separators. A nil collector still emits the extras.
func (c *Collector) WriteChromeTraceWith(w io.Writer, extra []string) error {
	if c == nil && len(extra) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	// Stable thread numbering: entities in order of first appearance,
	// which is deterministic because span creation order is.
	tid := make(map[string]int)
	var entities []string
	if c != nil {
		for i := range c.spans {
			e := c.spans[i].Entity
			if _, ok := tid[e]; !ok {
				tid[e] = len(entities)
				entities = append(entities, e)
			}
		}
	}
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }
	var b strings.Builder
	b.WriteString("[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for i, e := range entities {
		name, _ := json.Marshal(e)
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%s}}`, i, name))
	}
	var spans []Span
	if c != nil {
		spans = c.spans
	}
	for i := range spans {
		s := &spans[i]
		end := s.End
		if !s.Ended {
			end = s.Begin
		}
		name, _ := json.Marshal(s.Name)
		args := fmt.Sprintf(`{"id":%d,"class":%q`, s.ID, s.Class.String())
		for _, a := range s.Attrs {
			k, _ := json.Marshal(a.Key)
			if a.IsInt {
				args += fmt.Sprintf(",%s:%d", k, a.Int)
			} else {
				v, _ := json.Marshal(a.Str)
				args += fmt.Sprintf(",%s:%s", k, v)
			}
		}
		args += "}"
		emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%g,"dur":%g,"name":%s,"cat":%q,"args":%s}`,
			tid[s.Entity], us(s.Begin), us(end-s.Begin), name, s.Layer, args))
		if s.Parent != 0 {
			if p, ok := c.Get(s.Parent); ok && p.Entity != s.Entity {
				// Flow arrow from the parent's track to the child's at the
				// moment the child begins.
				emit(fmt.Sprintf(`{"ph":"s","pid":0,"tid":%d,"ts":%g,"id":%d,"name":"flow","cat":"flow"}`,
					tid[p.Entity], us(s.Begin), s.ID))
				emit(fmt.Sprintf(`{"ph":"f","bp":"e","pid":0,"tid":%d,"ts":%g,"id":%d,"name":"flow","cat":"flow"}`,
					tid[s.Entity], us(s.Begin), s.ID))
			}
		}
	}
	for _, line := range extra {
		emit(line)
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFolded writes pprof-style folded stacks ("frame;frame;frame value"
// per line) for flamegraph tooling. Each ended span contributes its
// self-time (duration minus ended-children durations, floored at zero)
// under the stack of its ancestors; frames render as layer.name(entity).
// Lines are sorted lexically, so output is deterministic.
func (c *Collector) WriteFolded(w io.Writer) error {
	if c == nil {
		return nil
	}
	frame := func(s *Span) string {
		return fmt.Sprintf("%s.%s(%s)", s.Layer, s.Name, s.Entity)
	}
	childSum := make(map[ID]sim.Time)
	for i := range c.spans {
		s := &c.spans[i]
		if s.Ended && s.Parent != 0 {
			childSum[s.Parent] += s.Dur()
		}
	}
	stacks := make(map[string]sim.Time)
	for i := range c.spans {
		s := &c.spans[i]
		if !s.Ended {
			continue
		}
		self := s.Dur() - childSum[s.ID]
		if self <= 0 {
			continue
		}
		frames := []string{frame(s)}
		for p := s.Parent; p != 0; {
			ps, ok := c.Get(p)
			if !ok {
				break
			}
			frames = append(frames, frame(&ps))
			p = ps.Parent
		}
		// frames is leaf-first; folded format wants root-first.
		var b strings.Builder
		for j := len(frames) - 1; j >= 0; j-- {
			if j < len(frames)-1 {
				b.WriteByte(';')
			}
			b.WriteString(frames[j])
		}
		stacks[b.String()] += self
	}
	lines := make([]string, 0, len(stacks))
	for st, v := range stacks {
		lines = append(lines, fmt.Sprintf("%s %d", st, int64(v)))
	}
	sort.Strings(lines)
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}
