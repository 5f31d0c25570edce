package bench

import (
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// The run loop's counters are exact and do not depend on the host: an
// 8×8, 32 KiB Ialltoall fires the same events, wakes the same processes
// and grows the same arena on every machine. The numbers are taken when the
// ranks have finished, before the system is retired. Fired is the model's
// event count and moves only with the model; Wakeups and Handoffs count the
// coroutine resumes a run pays for. The one-call row is the install alone:
// its handoffs are nearly all the host's gather, a rank blocking for each
// peer's receive metadata.
func TestKernelCountsPinned(t *testing.T) {
	t.Parallel()
	const nodes, ppn, size = 8, 8, 32 << 10
	const np = nodes * ppn
	for _, c := range []struct {
		scheme string
		calls  int
		want   sim.Stats
	}{
		{"gvmi", 3, sim.Stats{Fired: 105432, Wakeups: 12736, SelfWakeups: 3, Handoffs: 12733, Slots: 4032}},
		{"bluesmpi", 3, sim.Stats{Fired: 177408, Wakeups: 28496, SelfWakeups: 1, Handoffs: 28495, Slots: 4032}},
		{"hostdirect", 3, sim.Stats{Fired: 134495, Wakeups: 90143, SelfWakeups: 151, Handoffs: 89992, Slots: 3600}},
		{"gvmi", 1, sim.Stats{Fired: 47976, Wakeups: 12352, SelfWakeups: 1, Handoffs: 12351, Slots: 4032}},
	} {
		e := Build(Options{Nodes: nodes, PPN: ppn, Scheme: c.scheme})
		e.Worlds[0].Launch(func(r *mpi.Rank) {
			ops, _ := coll.Bind(e.Spec.Scheme, r, e.Host(0, r), e.Engines[0])
			send, recv := r.Alloc(np*size), r.Alloc(np*size)
			for i := 0; i < c.calls; i++ {
				ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
			}
		})
		e.Cl.K.Run()
		got := e.Cl.K.Stats()
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s ×%d: %v", c.scheme, c.calls, err)
		}
		if got != c.want {
			t.Errorf("%s ×%d: kernel counts %+v, want %+v", c.scheme, c.calls, got, c.want)
		}
	}
}

// The simulator's goroutines are its ranks' coroutines and nothing else: a
// proxy is an event handler with no stack. Sampled from rank 0 once the
// first call of a 4×4 Ialltoall is done, the process holds no more than the
// goroutines it held before the build, one per rank, and a couple of spares
// for the runtime. The test is not parallel: the count is the whole
// process's.
func TestGoroutinesAreRanks(t *testing.T) {
	const nodes, ppn, size = 4, 4, 4 << 10
	const np, spare = nodes * ppn, 2
	base := runtime.NumGoroutine()
	e := Build(Options{Nodes: nodes, PPN: ppn, Scheme: "gvmi"})
	var during int
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		send, recv := r.Alloc(np*size), r.Alloc(np*size)
		ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
		if r.RankID() == 0 {
			during = runtime.NumGoroutine()
		}
		ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
	})
	if during > base+np+spare {
		t.Errorf("%d goroutines during the run, %d before it: more than one per rank (%d) and %d spare", during, base, np, spare)
	}
}
