package span

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// build constructs a span with explicit times: a closed interval [b,e).
func mk(c *Collector, parent ID, class Class, entity, layer, name string, b, e sim.Time) ID {
	id := c.StartAt(parent, class, entity, layer, name, b)
	c.EndAt(id, e)
	return id
}

func pathSum(segs []Segment) sim.Time {
	var sum sim.Time
	for _, g := range segs {
		sum += g.Dur()
	}
	return sum
}

// checkTiling asserts the segments are chronological, contiguous, and tile
// [b,e) exactly.
func checkTiling(t *testing.T, segs []Segment, b, e sim.Time) {
	t.Helper()
	cursor := b
	for i, g := range segs {
		if g.From != cursor {
			t.Fatalf("segment %d starts at %d, want %d (segs=%v)", i, g.From, cursor, segs)
		}
		if g.To < g.From {
			t.Fatalf("segment %d negative [%d,%d)", i, g.From, g.To)
		}
		cursor = g.To
	}
	if cursor != e {
		t.Fatalf("path ends at %d, want %d (segs=%v)", cursor, e, segs)
	}
}

// A leaf root's critical path is one self-time segment covering its window.
func TestCriticalPathLeaf(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "mpi", "isend", 10, 40)
	segs := c.CriticalPath(r)
	if len(segs) != 1 || segs[0].Span != r || segs[0].From != 10 || segs[0].To != 40 {
		t.Fatalf("segs = %v", segs)
	}
}

// Sequential children with gaps: the gaps become parent self-time, and the
// whole path tiles the root window exactly.
func TestCriticalPathGapsAreSelfTime(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 100)
	a := mk(c, r, ClassProxy, "proxy0", "core", "group_exec", 10, 40)
	b := mk(c, r, ClassHCA, "n0.hca", "verbs", "rdma_write", 60, 90)
	segs := c.CriticalPath(r)
	checkTiling(t, segs, 0, 100)
	if pathSum(segs) != 100 {
		t.Fatalf("sum = %d, want 100", pathSum(segs))
	}
	// Expected tiling: r[0,10) a[10,40) r[40,60) b[60,90) r[90,100).
	want := []Segment{
		{r, 0, 10}, {a, 10, 40}, {r, 40, 60}, {b, 60, 90}, {r, 90, 100},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
}

// Overlapping children: the backward walk follows the child with the
// latest end, handing the earlier window to the other — no time is
// double-counted and the sum is still exact.
func TestCriticalPathOverlappingChildren(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 100)
	a := mk(c, r, ClassProxy, "proxy0", "core", "group_exec", 0, 70)
	b := mk(c, r, ClassProxy, "proxy1", "core", "group_exec", 50, 100)
	segs := c.CriticalPath(r)
	checkTiling(t, segs, 0, 100)
	// b owns its full window [50,100); a is clamped to [0,50).
	want := []Segment{{a, 0, 50}, {b, 50, 100}}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
}

// Deep recursion: the path descends through grandchildren, attributing the
// deepest covering span at every instant.
func TestCriticalPathDeepTree(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 100)
	exec := mk(c, r, ClassProxy, "proxy0", "core", "group_exec", 5, 95)
	wr := mk(c, exec, ClassHCA, "n0.hca", "verbs", "rdma_write", 20, 60)
	wire := mk(c, wr, ClassWire, "n0->n1", "fabric", "wire", 30, 55)
	segs := c.CriticalPath(r)
	checkTiling(t, segs, 0, 100)
	want := []Segment{
		{r, 0, 5}, {exec, 5, 20}, {wr, 20, 30}, {wire, 30, 55},
		{wr, 55, 60}, {exec, 60, 95}, {r, 95, 100},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
}

// Open (un-ended) children are excluded: their window falls back to the
// parent's self-time rather than poisoning the analysis.
func TestCriticalPathSkipsOpenSpans(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 50)
	c.StartAt(r, ClassProxy, "proxy0", "core", "group_exec", 10) // never ended
	segs := c.CriticalPath(r)
	if len(segs) != 1 || segs[0].Span != r {
		t.Fatalf("segs = %v, want single root self-segment", segs)
	}
	// An open root has no path at all.
	open := c.StartAt(0, ClassRank, "rank1", "mpi", "irecv", 0)
	if c.CriticalPath(open) != nil {
		t.Error("open root produced a path")
	}
	if c.CriticalPath(999) != nil {
		t.Error("unknown root produced a path")
	}
}

// A child extending past its parent's end is clamped to the parent window;
// the tiling invariant holds regardless.
func TestCriticalPathClampsChildOverhang(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "mpi", "isend", 10, 50)
	a := mk(c, r, ClassHCA, "n0.hca", "verbs", "rdma_write", 40, 80)
	segs := c.CriticalPath(r)
	checkTiling(t, segs, 10, 50)
	want := []Segment{{r, 10, 40}, {a, 40, 50}}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
}

// Zero-duration roots tile trivially: an empty path sums to the zero
// latency.
func TestCriticalPathZeroDurationRoot(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "mpi", "isend", 7, 7)
	if segs := c.CriticalPath(r); len(segs) != 0 {
		t.Fatalf("zero-duration root produced segments: %v", segs)
	}
}

// Attribution buckets path time by (layer, class, name), sorted by
// descending time then key — and sums to the total root latency.
func TestAttributionBucketsAndOrder(t *testing.T) {
	c := New(0)
	r1 := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 100)
	mk(c, r1, ClassProxy, "proxy0", "core", "group_exec", 0, 60)
	r2 := mk(c, 0, ClassRank, "rank1", "coll", "ialltoall", 0, 100)
	mk(c, r2, ClassProxy, "proxy1", "core", "group_exec", 0, 60)
	rows := c.Attribution([]ID{r1, r2})
	if len(rows) != 2 {
		t.Fatalf("rows = %+v, want 2 buckets", rows)
	}
	if rows[0].Name != "group_exec" || rows[0].Time != 120 || rows[0].Segments != 2 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[1].Name != "ialltoall" || rows[1].Time != 80 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	var sum sim.Time
	for _, r := range rows {
		sum += r.Time
	}
	if sum != 200 {
		t.Fatalf("attribution sums to %d, want 200", sum)
	}
	tbl := FormatAttribution(rows, 200)
	for _, want := range []string{"group_exec", "ialltoall", "total", "60.00%", "40.00%"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	// total=0 sums the rows instead.
	if !strings.Contains(FormatAttribution(rows, 0), "200") {
		t.Error("FormatAttribution(0) did not sum rows")
	}
}

func TestFormatPath(t *testing.T) {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 100)
	mk(c, r, ClassProxy, "proxy0", "core", "group_exec", 10, 40)
	out := c.FormatPath(r)
	for _, want := range []string{"rank0 coll/ialltoall", "core/group_exec", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatPath missing %q:\n%s", want, out)
		}
	}
	if c.FormatPath(999) != "" {
		t.Error("FormatPath of unknown root not empty")
	}
}
