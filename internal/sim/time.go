// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel owns a virtual clock and an event queue. Simulated processes
// (Proc) are coroutines that run one at a time under kernel control; a
// process advances the virtual clock by sleeping (Sleep, AdvanceBusy) or by
// blocking on a condition (Cond) until another process or event handler
// signals it. Event handlers (Action, Func) run to completion when their
// time comes and have no stack of their own; one can park on a Cond too.
// Because exactly one process runs at any instant and ties in the event
// queue are broken by insertion order, every simulation run is fully
// deterministic.
//
// The rest of the repository builds a simulated InfiniBand cluster on top of
// this kernel: fabric models link costs, verbs/gvmi model NIC registration
// and RDMA, mpi and core model the communication libraries under study.
package sim

import "fmt"

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with an adaptive unit, e.g. "12.50us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.4fs", t.Seconds())
	}
}

// Micros returns the duration in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the duration in milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns the duration in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// MaxTime is the largest representable virtual time.
const MaxTime = Time(1<<63 - 1)
