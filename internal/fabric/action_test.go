package fabric

import (
	"testing"

	"repro/internal/sim"
)

type recordAction struct {
	n    int
	last sim.Time
}

func (a *recordAction) Fire(at sim.Time) { a.n++; a.last = at }

// TransferAction delivers to its Action exactly at the arrival times it
// returns and, with a reusable Action, schedules with zero allocations per
// message in steady state — the "fabric packets" leg of the pooled hot path.
func TestTransferActionDeliversOnTimeAllocFree(t *testing.T) {
	build := func() (*sim.Kernel, *Fabric, *Endpoint, *Endpoint) {
		k := sim.NewKernel()
		f := New(k, DefaultConfig())
		src := f.NewEndpoint("n0.host", 0, testHostPort)
		dst := f.NewEndpoint("n1.host", 1, testHostPort)
		return k, f, src, dst
	}

	// Timing: five back-to-back messages each fire their Action once, at
	// their own (serialized) arrival time.
	k1, f1, s1, d1 := build()
	var acts [5]recordAction
	var arrive [5]sim.Time
	for i := range acts {
		_, arrive[i], _ = f1.TransferAction(s1, d1, 2048, &acts[i])
	}
	k1.Run()
	for i, a := range acts {
		if a.n != 1 || a.last != arrive[i] || (i > 0 && arrive[i] <= arrive[i-1]) {
			t.Fatalf("message %d: action fired %d times, last at %v, want once at %v", i, a.n, a.last, arrive[i])
		}
	}

	// Allocation budget: a recycled Action transfers at 0 allocs/op.
	k2, f2, s2, d2 := build()
	warm := &recordAction{}
	for i := 0; i < 8; i++ {
		f2.TransferAction(s2, d2, 1024, warm)
	}
	k2.Run()
	allocs := testing.AllocsPerRun(200, func() {
		f2.TransferAction(s2, d2, 1024, warm)
		k2.Run()
	})
	if allocs > 0 {
		t.Fatalf("TransferAction allocated %.2f objects per message in steady state, want 0", allocs)
	}
}
