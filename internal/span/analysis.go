package span

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Segment is one slice of a root span's critical path: between From and To,
// span Span (possibly a deep descendant of the root) was the deepest
// operation the root's completion was waiting on. Segments returned by
// CriticalPath are chronological, non-overlapping, and tile the root's
// [Begin, End] window exactly — their durations sum to the root's latency
// by construction.
type Segment struct {
	Span ID
	From sim.Time
	To   sim.Time
}

// Dur returns the segment length.
func (g Segment) Dur() sim.Time { return g.To - g.From }

// childIndex maps parent ID -> child indices into c.spans, children in
// creation order (deterministic).
func (c *Collector) childIndex() map[ID][]int {
	idx := make(map[ID][]int)
	for i := range c.spans {
		p := c.spans[i].Parent
		if p != 0 {
			idx[p] = append(idx[p], i)
		}
	}
	return idx
}

// CriticalPath extracts the critical path of root: the chain of descendant
// spans that the root's end-to-end latency decomposes into. The walk is
// backward from the root's end — at every point the path follows the child
// whose (window-clamped) end is latest, recursing into it over the window
// it owns; gaps no child covers are the parent's self-time. Open
// (un-ended) spans are skipped. Returns nil if root is unknown or open.
func (c *Collector) CriticalPath(root ID) []Segment {
	if c == nil {
		return nil
	}
	return c.criticalPath(root, c.childIndex())
}

// criticalPath is CriticalPath against a prebuilt child index, so bulk
// callers (Attribution) pay the O(spans) index build once, not per root.
func (c *Collector) criticalPath(root ID, idx map[ID][]int) []Segment {
	r, ok := c.Get(root)
	if !ok || !r.Ended {
		return nil
	}
	var rev []Segment // built backward, reversed before returning
	c.walk(root, r.Begin, r.End, idx, &rev)
	out := make([]Segment, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// walk attributes the window [ws, we) of span id, appending segments in
// reverse chronological order. Invariant: the segments appended for a call
// tile [ws, we) exactly.
func (c *Collector) walk(id ID, ws, we sim.Time, idx map[ID][]int, out *[]Segment) {
	if we <= ws {
		return
	}
	kids := idx[id]
	used := make([]bool, len(kids))
	cursor := we
	for cursor > ws {
		// Pick the unused ended child whose clamped end is latest; ties go
		// to the later Begin (the tighter span), then to the later
		// creation order — all deterministic.
		best := -1
		var bestEnd, bestBegin sim.Time
		for j, ki := range kids {
			if used[j] {
				continue
			}
			k := &c.spans[ki]
			if !k.Ended || k.Begin >= cursor {
				continue
			}
			e := k.End
			if e > cursor {
				e = cursor
			}
			b := k.Begin
			if b < ws {
				b = ws
			}
			if e <= b {
				continue
			}
			if best < 0 || e > bestEnd || (e == bestEnd && b > bestBegin) ||
				(e == bestEnd && b == bestBegin && ki > kids[best]) {
				best, bestEnd, bestBegin = j, e, b
			}
		}
		if best < 0 {
			// No child covers (ws, cursor): all self-time.
			*out = append(*out, Segment{Span: id, From: ws, To: cursor})
			return
		}
		used[best] = true
		if bestEnd < cursor {
			// Gap between the chosen child's end and the cursor: self-time.
			*out = append(*out, Segment{Span: id, From: bestEnd, To: cursor})
		}
		c.walk(c.spans[kids[best]].ID, bestBegin, bestEnd, idx, out)
		cursor = bestBegin
	}
}

// AttribKey buckets critical-path time for the attribution table.
type AttribKey struct {
	Layer string
	Class Class
	Name  string
}

// AttribRow is one row of the latency-attribution table.
type AttribRow struct {
	AttribKey
	Time     sim.Time // total critical-path time attributed to this bucket
	Segments int      // number of path segments contributing
}

// Attribution extracts the critical path of every given root and
// aggregates segment time by (layer, class, name). Rows are sorted by
// descending time, then by key — deterministic for a deterministic run.
func (c *Collector) Attribution(roots []ID) []AttribRow {
	if c == nil {
		return nil
	}
	acc := make(map[AttribKey]*AttribRow)
	idx := c.childIndex()
	for _, root := range roots {
		for _, g := range c.criticalPath(root, idx) {
			s, ok := c.Get(g.Span)
			if !ok {
				continue
			}
			k := AttribKey{Layer: s.Layer, Class: s.Class, Name: s.Name}
			row := acc[k]
			if row == nil {
				row = &AttribRow{AttribKey: k}
				acc[k] = row
			}
			row.Time += g.Dur()
			row.Segments++
		}
	}
	rows := make([]AttribRow, 0, len(acc))
	for _, r := range acc {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Time != rows[j].Time {
			return rows[i].Time > rows[j].Time
		}
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		if rows[i].Class != rows[j].Class {
			return rows[i].Class < rows[j].Class
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// FormatAttribution renders the attribution table. total is the
// denominator for the percentage column (pass the summed root latencies;
// 0 sums the rows instead).
func FormatAttribution(rows []AttribRow, total sim.Time) string {
	if total == 0 {
		for _, r := range rows {
			total += r.Time
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-7s %-16s %14s %8s %6s\n",
		"layer", "class", "name", "time", "pct", "segs")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.Time) / float64(total)
		}
		fmt.Fprintf(&b, "%-8s %-7s %-16s %14s %7.2f%% %6d\n",
			r.Layer, r.Class, r.Name, r.Time, pct, r.Segments)
	}
	fmt.Fprintf(&b, "%-8s %-7s %-16s %14s\n", "total", "", "", total)
	return b.String()
}

// FormatPath renders one root's critical path, one line per segment, with
// the segment's span identified by entity/layer/name. Used by the
// offloadbench critical-path subcommand.
func (c *Collector) FormatPath(root ID) string {
	r, ok := c.Get(root)
	if !ok {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s/%s [%s, %s] latency %s\n",
		r.Entity, r.Layer, r.Name, r.Begin, r.End, r.End-r.Begin)
	for _, g := range c.CriticalPath(root) {
		s, _ := c.Get(g.Span)
		marker := " "
		if g.Span == root {
			marker = "*" // root self-time
		}
		fmt.Fprintf(&b, "  %s %12s  %-6s %-14s %s\n",
			marker, g.Dur(), s.Class, s.Entity, s.Layer+"/"+s.Name)
	}
	return b.String()
}
