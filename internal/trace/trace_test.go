package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Add(1, "x", "y", "z")
	if l.Enabled() || l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log misbehaves")
	}
}

func TestAddAndOrdering(t *testing.T) {
	l := New(0)
	l.Add(30, "b", "act", "")
	l.Add(10, "a", "act", "")
	l.Add(30, "a", "first-at-30", "") // same time: stable order
	ev := l.Events()
	if len(ev) != 3 || ev[0].At != 10 || ev[1].Entity != "b" || ev[2].Action != "first-at-30" {
		t.Fatalf("ordering wrong: %+v", ev)
	}
}

func TestLimitCaps(t *testing.T) {
	l := New(2)
	for i := 0; i < 5; i++ {
		l.Add(sim.Time(i), "e", "a", "")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestTimeline(t *testing.T) {
	l := New(0)
	l.Add(1, "rank0", "Send_Offload", "dst=1")
	l.Add(2, "proxy0", "rts", "")
	l.Add(3, "rank1", "FIN", "req=1")
	var sb strings.Builder
	if err := l.Timeline(&sb); err != nil {
		t.Fatalf("Timeline: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"rank0", "Send_Offload", "proxy0", "FIN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

// Regression: Events memoizes the sorted view until the next Add, so
// repeated Events/Timeline calls do not re-unroll and re-sort the ring.
func TestEventsMemoized(t *testing.T) {
	l := New(3)
	for i := 5; i > 0; i-- {
		l.Add(sim.Time(i), "e", "a", "")
	}
	a := l.Events()
	b := l.Events()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lens %d/%d, want 3 (ring limit)", len(a), len(b))
	}
	if &a[0] != &b[0] {
		t.Fatal("Events re-built the view without an intervening Add")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("cached view unsorted at %d", i)
		}
	}
	// Add invalidates: the new event must appear, correctly placed.
	l.Add(0, "e", "new", "")
	c := l.Events()
	if len(c) != 3 || c[0].Action != "new" {
		t.Fatalf("view stale after Add: %+v", c)
	}
}

// Dropped at exact-limit boundaries: filling a ring to precisely its limit
// evicts nothing; the very next Add evicts exactly one.
func TestDroppedExactLimitBoundary(t *testing.T) {
	l := New(3)
	for i := 0; i < 3; i++ {
		l.Add(sim.Time(i), "e", "a", "")
	}
	if l.Dropped() != 0 || l.Len() != 3 {
		t.Fatalf("at limit: Dropped=%d Len=%d, want 0/3", l.Dropped(), l.Len())
	}
	l.Add(3, "e", "a", "")
	if l.Dropped() != 1 || l.Len() != 3 {
		t.Fatalf("one past limit: Dropped=%d Len=%d, want 1/3", l.Dropped(), l.Len())
	}
	l.Add(4, "e", "a", "")
	if l.Dropped() != 2 {
		t.Fatalf("two past limit: Dropped=%d, want 2", l.Dropped())
	}
	// Unbounded and limit-1 edge cases.
	u := New(0)
	for i := 0; i < 100; i++ {
		u.Add(sim.Time(i), "e", "a", "")
	}
	if u.Dropped() != 0 || u.Len() != 100 {
		t.Fatalf("unbounded: Dropped=%d Len=%d", u.Dropped(), u.Len())
	}
	one := New(1)
	one.Add(1, "e", "first", "")
	one.Add(2, "e", "second", "")
	if one.Dropped() != 1 || one.Len() != 1 || one.Events()[0].Action != "second" {
		t.Fatalf("limit-1 ring: Dropped=%d Len=%d ev=%+v", one.Dropped(), one.Len(), one.Events())
	}
}

// Ring wraparound: after eviction the sorted view contains exactly the
// surviving tail, correctly ordered even though the backing array's ring
// head has rotated — and an Add after a read rebuilds, never mutating the
// previously returned slice.
func TestRingWraparoundView(t *testing.T) {
	l := New(4)
	// Insert out of order so sorting does real work: 8,7,...,1.
	for i := 8; i >= 1; i-- {
		l.Add(sim.Time(i), "e", "a", "")
	}
	ev := l.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	// Survivors are the last four inserts: times 4,3,2,1 -> sorted 1..4.
	for i, want := range []sim.Time{1, 2, 3, 4} {
		if ev[i].At != want {
			t.Fatalf("ev[%d].At = %d, want %d (view %+v)", i, ev[i].At, want, ev)
		}
	}
	// Snapshot the old view, Add once more, and re-read: the ring evicts by
	// insertion order, so the oldest surviving insert (time 4) goes; the old
	// slice must be untouched and the new view must reflect the eviction.
	old := make([]Event, len(ev))
	copy(old, ev)
	l.Add(9, "e", "late", "")
	ev2 := l.Events()
	for i := range old {
		if ev[i] != old[i] {
			t.Fatalf("Add mutated previously returned view at %d", i)
		}
	}
	want2 := []sim.Time{1, 2, 3, 9}
	for i, want := range want2 {
		if ev2[i].At != want {
			t.Fatalf("post-evict ev[%d].At = %d, want %d", i, ev2[i].At, want)
		}
	}
	if l.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5", l.Dropped())
	}
}

// failWriter errors after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errShort
	}
	f.n--
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

// Timeline propagates the first write error instead of silently truncating.
func TestTimelineWriteError(t *testing.T) {
	l := New(0)
	l.Add(1, "rank0", "a", "")
	l.Add(2, "rank1", "b", "")
	if err := l.Timeline(&failWriter{n: 1}); err != errShort {
		t.Fatalf("Timeline error = %v, want %v", err, errShort)
	}
	if err := l.Timeline(&strings.Builder{}); err != nil {
		t.Fatalf("Timeline on good writer: %v", err)
	}
}

// The fix: repeated reads of a full ring are O(1) per call instead of
// O(n log n). Compare BenchmarkEventsRepeated with and without the memo by
// reverting trace.go's sorted field.
func BenchmarkEventsRepeated(b *testing.B) {
	l := New(4096)
	for i := 0; i < 8192; i++ {
		l.Add(sim.Time(8192-i), "entity", "action", "detail")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(l.Events()) != 4096 {
			b.Fatal("bad length")
		}
	}
}

func TestUnboundedLogDropsNothing(t *testing.T) {
	l := New(0)
	for i := 0; i < 1000; i++ {
		l.Add(sim.Time(i), "rank0", "op", "")
	}
	if l.Len() != 1000 || l.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", l.Len(), l.Dropped())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Add(sim.Time(i), "e", fmt.Sprintf("op%d", i), "")
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", l.Dropped())
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d", len(evs))
	}
	for i, ev := range evs {
		if want := fmt.Sprintf("op%d", i+6); ev.Action != want {
			t.Fatalf("event %d = %q, want %q (oldest evicted, order kept)", i, ev.Action, want)
		}
	}
	if (&Log{}).Dropped() != 0 {
		t.Fatal("fresh log reports drops")
	}
}

func TestRingKeepsInsertionOrderForEqualTimes(t *testing.T) {
	l := New(3)
	for i := 0; i < 7; i++ {
		l.Add(5, "e", fmt.Sprintf("op%d", i), "") // all at the same instant
	}
	want := []string{"op4", "op5", "op6"}
	for i, ev := range l.Events() {
		if ev.Action != want[i] {
			t.Fatalf("event %d = %q, want %q", i, ev.Action, want[i])
		}
	}
}
