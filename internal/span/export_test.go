package span

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func sampleCollector() *Collector {
	c := New(0)
	r := mk(c, 0, ClassRank, "rank0", "coll", "ialltoall", 0, 100)
	c.AttrInt(r, "size", 8192)
	e := mk(c, r, ClassProxy, "n0.dpu/proxy0", "core", "group_exec", 10, 90)
	c.AttrStr(e, "mech", "gvmi")
	w := mk(c, e, ClassHCA, "n0.dpu", "verbs", "rdma_write", 20, 60)
	mk(c, w, ClassWire, `n0.dpu->n1.host`, "fabric", "wire", 30, 55)
	c.StartAt(r, ClassRank, "rank0", "core", "open_op", 95) // stays open
	return c
}

// JSONL: one valid JSON object per line, creation order, open spans
// flagged, attrs preserved with types — and byte-identical across calls.
func TestWriteJSONL(t *testing.T) {
	c := sampleCollector()
	var b1, b2 strings.Builder
	if err := c.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("JSONL output not deterministic")
	}
	sc := bufio.NewScanner(strings.NewReader(b1.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != c.Len() {
		t.Fatalf("%d lines for %d spans", len(lines), c.Len())
	}
	if lines[0]["id"].(float64) != 1 || lines[0]["layer"] != "coll" {
		t.Fatalf("line 0 = %v", lines[0])
	}
	attrs := lines[0]["attrs"].(map[string]any)
	if attrs["size"].(float64) != 8192 {
		t.Fatalf("root attrs = %v", attrs)
	}
	if lines[1]["attrs"].(map[string]any)["mech"] != "gvmi" {
		t.Fatalf("exec attrs = %v", lines[1]["attrs"])
	}
	last := lines[len(lines)-1]
	if last["open"] != true || last["end_ns"] != last["begin_ns"] {
		t.Fatalf("open span line = %v", last)
	}

	var nilC *Collector
	var nb strings.Builder
	if err := nilC.WriteJSONL(&nb); err != nil || nb.Len() != 0 {
		t.Errorf("nil WriteJSONL: err=%v out=%q", err, nb.String())
	}
}

// Chrome trace: the whole document is valid JSON; thread metadata names
// every entity; X events carry microsecond timestamps; cross-entity edges
// get s/f flow pairs and same-entity edges do not.
func TestWriteChromeTrace(t *testing.T) {
	c := sampleCollector()
	var b strings.Builder
	if err := c.WriteChromeTraceWith(&b, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, b.String())
	}
	byPh := map[string][]map[string]any{}
	for _, e := range events {
		ph := e["ph"].(string)
		byPh[ph] = append(byPh[ph], e)
	}
	if len(byPh["M"]) != 4 { // rank0, n0.dpu/proxy0, n0.dpu, n0.dpu->n1.host
		t.Fatalf("%d thread_name events, want 4", len(byPh["M"]))
	}
	if len(byPh["X"]) != c.Len() {
		t.Fatalf("%d X events for %d spans", len(byPh["X"]), c.Len())
	}
	// Root: ts 0, dur 100ns = 0.1us.
	root := byPh["X"][0]
	if root["dur"].(float64) != 0.1 {
		t.Fatalf("root dur = %v us, want 0.1", root["dur"])
	}
	// Four parent edges; the open rank0 child shares the root's entity, so
	// three cross-entity flow pairs.
	if len(byPh["s"]) != 3 || len(byPh["f"]) != 3 {
		t.Fatalf("flow events s=%d f=%d, want 3/3", len(byPh["s"]), len(byPh["f"]))
	}

	var nilC *Collector
	var nb strings.Builder
	if err := nilC.WriteChromeTraceWith(&nb, nil); err != nil {
		t.Fatal(err)
	}
	var empty []any
	if err := json.Unmarshal([]byte(nb.String()), &empty); err != nil || len(empty) != 0 {
		t.Errorf("nil trace = %q", nb.String())
	}
}

// Folded stacks: self-time per stack, root-first frames, sorted lines,
// zero-self-time spans omitted.
func TestWriteFolded(t *testing.T) {
	c := sampleCollector()
	var b strings.Builder
	if err := c.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	want := map[string]string{
		"coll.ialltoall(rank0) 20":                                                                                      "root self-time 100-80",
		"coll.ialltoall(rank0);core.group_exec(n0.dpu/proxy0) 40":                                                       "exec self-time 80-40",
		"coll.ialltoall(rank0);core.group_exec(n0.dpu/proxy0);verbs.rdma_write(n0.dpu) 15":                              "write self-time 40-25",
		"coll.ialltoall(rank0);core.group_exec(n0.dpu/proxy0);verbs.rdma_write(n0.dpu);fabric.wire(n0.dpu->n1.host) 25": "wire leaf 25",
	}
	if len(lines) != len(want) {
		t.Fatalf("%d folded lines, want %d:\n%s", len(lines), len(want), out)
	}
	for _, ln := range lines {
		if _, ok := want[ln]; !ok {
			t.Errorf("unexpected folded line %q", ln)
		}
	}
	if !strings.HasPrefix(lines[0], "coll.ialltoall(rank0) ") {
		t.Errorf("lines not sorted: first = %q", lines[0])
	}

	var nilC *Collector
	var nb strings.Builder
	if err := nilC.WriteFolded(&nb); err != nil || nb.Len() != 0 {
		t.Errorf("nil WriteFolded: err=%v out=%q", err, nb.String())
	}
}

// timelineCollector is sampleCollector plus two noted faults: one that ties
// with the wire span's begin time but was created later, and one created
// last that begins early.
func timelineCollector() *Collector {
	c := sampleCollector()
	c.EndAt(c.StartAt(0, ClassHCA, "n0.dpu", "fault", "drop", 30), 30)
	crash := c.StartAt(0, ClassProxy, "proxy1", "fault", "crash", 5)
	c.AttrStr(crash, "detail", "process killed")
	c.EndAt(crash, 5)
	return c
}

// Timeline: one row per span in begin-time order, rows that begin at the
// same instant in creation order, attributes spelled key=value, the entity
// column padded to the widest name.
func TestWriteTimelineGolden(t *testing.T) {
	var b strings.Builder
	if err := timelineCollector().WriteTimeline(&b); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"         0ns  rank0            coll.ialltoall size=8192\n" +
		"         5ns  proxy1           fault.crash detail=process killed\n" +
		"        10ns  n0.dpu/proxy0    core.group_exec mech=gvmi\n" +
		"        20ns  n0.dpu           verbs.rdma_write\n" +
		"        30ns  n0.dpu->n1.host  fabric.wire\n" +
		"        30ns  n0.dpu           fault.drop\n" +
		"        95ns  rank0            core.open_op\n"
	if b.String() != want {
		t.Fatalf("timeline:\n%s\nwant:\n%s", b.String(), want)
	}

	var nilC *Collector
	var nb strings.Builder
	if err := nilC.WriteTimeline(&nb); err != nil || nb.Len() != 0 {
		t.Errorf("nil WriteTimeline: err=%v out=%q", err, nb.String())
	}
}

// failAfter fails every write after the first n.
type failAfter struct {
	n      int
	writes int
}

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errSink
	}
	return len(p), nil
}

// The first write error is returned and stops the listing, so a caller
// streaming to a file or pipe sees the failure instead of a short timeline.
func TestWriteTimelineWriteError(t *testing.T) {
	sink := &failAfter{n: 2}
	if err := timelineCollector().WriteTimeline(sink); !errors.Is(err, errSink) {
		t.Fatalf("WriteTimeline on a failing writer returned %v, want the sink's error", err)
	}
	if sink.writes != 3 {
		t.Fatalf("%d writes attempted, want the listing to stop at the failed third", sink.writes)
	}
}
