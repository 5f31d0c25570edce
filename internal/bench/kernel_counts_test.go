package bench

import (
	"runtime"
	"testing"

	"repro/internal/baseline"
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
// peer's receive metadata. The tenant rows place two jobs of unequal size
// on one framework of 4 nodes with two proxies per DPU, each job running
// four Ialltoalls of its own, so the proxies arbitrate between them: in
// arrival order, by weighted fair share, and by fair share with equal
// weights. Done, the sum of the instants the ranks finish at, tells them
// apart where the counts alone might not. The fair rows guard the grant
// order: skipping the re-sort after a cut grant moves the weighted row,
// and reversing the tie-break between tenants of equal pass moves the
// equal-weight row's event count.
func TestKernelCountsPinned(t *testing.T) {
	t.Parallel()
	const nodes, ppn, size = 8, 8, 32 << 10
	for _, c := range []struct {
		scheme string
		calls  int
		jobs   []baseline.Job // placed jobs sharing the framework; nil: one world of scheme
		fifo   bool
		want   sim.Stats
		done   sim.Time // the sum of the instants the ranks finish at
	}{
		{"gvmi", 3, nil, false, sim.Stats{Fired: 105432, Wakeups: 12736, SelfWakeups: 3, Handoffs: 12733, Slots: 4032}, 390384032},
		{"bluesmpi", 3, nil, false, sim.Stats{Fired: 177408, Wakeups: 28496, SelfWakeups: 1, Handoffs: 28495, Slots: 4032}, 4092424864},
		{"hostdirect", 3, nil, false, sim.Stats{Fired: 134495, Wakeups: 90143, SelfWakeups: 151, Handoffs: 89992, Slots: 3600}, 318150700},
		{"gvmi", 1, nil, false, sim.Stats{Fired: 47976, Wakeups: 12352, SelfWakeups: 1, Handoffs: 12351, Slots: 4032}, 152960288},
		{"fifo", 4, tenantJobs, true, sim.Stats{Fired: 17008, Wakeups: 1952, Handoffs: 1952, Slots: 496}, 57882040},
		{"fair", 4, tenantJobs, false, sim.Stats{Fired: 16964, Wakeups: 1952, Handoffs: 1952, Slots: 420}, 61202068},
		{"fair-equal", 4, equalJobs, false, sim.Stats{Fired: 16968, Wakeups: 1952, Handoffs: 1952, Slots: 484}, 61202068},
	} {
		var done sim.Time
		opt := Options{Nodes: nodes, PPN: ppn, Scheme: c.scheme}
		if c.jobs != nil {
			opt = Options{Nodes: 4, ProxiesPerDPU: 2, Jobs: c.jobs, FIFO: c.fifo}
		}
		e := Build(opt)
		for j, w := range e.Worlds {
			scheme, np := c.scheme, nodes*ppn
			if c.jobs != nil {
				scheme, np = c.jobs[j].Scheme, opt.Nodes*c.jobs[j].PPN
			}
			w.Launch(func(r *mpi.Rank) {
				ops, _ := coll.Bind(scheme, r, e.Host(j, r), e.Engines[j])
				send, recv := r.Alloc(np*size), r.Alloc(np*size)
				for i := 0; i < c.calls; i++ {
					ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
				}
				done += r.Now()
			})
		}
		e.Cl.K.Run()
		got := e.Cl.K.Stats()
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s ×%d: %v", c.scheme, c.calls, err)
		}
		if got != c.want || done != c.done {
			t.Errorf("%s ×%d: kernel counts %+v, ranks done at Σ %d, want %+v, Σ %d", c.scheme, c.calls, got, done, c.want, c.done)
		}
	}
}

// tenantJobs are the tenant rows' two jobs: five and three ranks per node,
// the smaller one weighted three times the larger; equalJobs weight them
// alike.
var tenantJobs = []baseline.Job{
	{Name: "a", PPN: 5, Weight: 1, Scheme: "gvmi"},
	{Name: "b", PPN: 3, Weight: 3, Scheme: "gvmi"},
}

var equalJobs = []baseline.Job{
	{Name: "a", PPN: 5, Weight: 1, Scheme: "gvmi"},
	{Name: "b", PPN: 3, Weight: 1, Scheme: "gvmi"},
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
