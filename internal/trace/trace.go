// Package trace records per-entity event timelines from a simulation run —
// the machine-readable version of the paper's Figure 1, which contrasts how
// the host CPU, the HCA and the DPU proxies progress a dependent
// communication pattern under the three designs.
//
// A *Log is attached to cluster.Config; all Add methods are nil-safe, so
// tracing costs nothing when disabled. Components record coarse protocol
// events (RTS sent, pair matched, RDMA posted/completed, FIN, group entry
// executed); the Timeline renderer prints them chronologically with one
// column per entity class.
package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time
	Entity string // e.g. "rank2", "proxy1", "hca0"
	Action string // e.g. "RTS", "match", "write-post", "write-done", "FIN"
	Detail string
}

// Log collects events. The zero value is unusable; use New. A nil *Log is
// valid and discards everything.
//
// When a limit is set the log is a ring buffer: once full, each new event
// evicts the oldest one, so long runs keep the most recent (usually most
// interesting) tail. Dropped reports how many events were evicted.
type Log struct {
	events  []Event
	limit   int
	start   int   // ring head: index of the oldest event when full
	dropped int64 // events evicted by the ring

	// sorted memoizes the unrolled, chronologically sorted view for
	// Events/Timeline; Add invalidates it. Callers must not mutate
	// the returned slice.
	sorted []Event
}

// New creates a log that keeps at most the limit most recent events
// (0 = unbounded).
func New(limit int) *Log {
	return &Log{limit: limit}
}

// Add records an event; nil-safe. With a limit set, the oldest event is
// evicted once the log is full.
func (l *Log) Add(at sim.Time, entity, action, detail string) {
	if l == nil {
		return
	}
	ev := Event{At: at, Entity: entity, Action: action, Detail: detail}
	l.sorted = nil
	if l.limit > 0 && len(l.events) >= l.limit {
		l.events[l.start] = ev
		l.start = (l.start + 1) % l.limit
		l.dropped++
		return
	}
	l.events = append(l.events, ev)
}

// Reset discards all recorded events but keeps the backing storage, so a
// log reused across benchmark repetitions reaches a steady state where Add
// never allocates; nil-safe.
func (l *Log) Reset() {
	if l == nil {
		return
	}
	l.events = l.events[:0]
	l.start = 0
	l.dropped = 0
	l.sorted = nil
}

// Dropped reports how many events were evicted by the ring buffer;
// nil-safe.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Enabled reports whether events are being recorded; nil-safe.
func (l *Log) Enabled() bool { return l != nil }

// Events returns the recorded events in chronological order (stable for
// equal timestamps, in insertion order). The view is memoized until the
// next Add, so repeated Events/Timeline calls do not re-sort the
// ring; the caller must not mutate the returned slice.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	if l.sorted != nil || len(l.events) == 0 {
		return l.sorted
	}
	// Unroll the ring so the stable sort preserves insertion order.
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.start:]...)
	out = append(out, l.events[:l.start]...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	l.sorted = out
	return out
}

// Len reports the number of recorded events; nil-safe.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Timeline renders the log as an aligned chronological listing:
//
//	12.50us  rank0   send-offload   dst=1 64K tag=4
//	13.20us  proxy0  RTS            from rank0
//
// It returns the first write error encountered (writes stop there), so
// callers streaming to files or pipes see short writes instead of silently
// truncated timelines.
func (l *Log) Timeline(w io.Writer) error {
	events := l.Events()
	entW, actW := 6, 6
	for _, e := range events {
		if len(e.Entity) > entW {
			entW = len(e.Entity)
		}
		if len(e.Action) > actW {
			actW = len(e.Action)
		}
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%12s  %-*s  %-*s  %s\n", e.At, entW, e.Entity, actW, e.Action, e.Detail); err != nil {
			return err
		}
	}
	return nil
}
