package coll

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mpi"
	"repro/internal/policy"
	"repro/internal/sim"
)

// callAllocs binds every rank of a started 2×2 framework with h (nil: no
// host handle) and eng, runs one Ialltoall + Wait per rank once per period
// of virtual time, and returns the allocations of one warm call per rank —
// every layer, every rank, over 20 calls. The first calls record the group
// and warm the free lists.
func callAllocs(t *testing.T, offload bool, eng *policy.Engine) float64 {
	t.Helper()
	const nodes, ppn, per, period = 2, 2, 4 << 10, 500 * sim.Microsecond
	cl := cluster.New(cluster.DefaultConfig(nodes, ppn))
	w := mpi.NewWorld(cl)
	sites := make([]*cluster.Site, cl.Cfg.NP())
	for i := range sites {
		sites[i] = w.Rank(i).Site()
	}
	fw := core.New(cl, core.DefaultConfig(), sites)
	fw.Start()
	calls := 0
	w.Launch(func(r *mpi.Rank) {
		var h *core.Host
		if offload {
			h = fw.Host(r.RankID())
			h.Bind(r.Proc())
		}
		ops, _ := Bind("pin", r, h, eng)
		np := r.Size()
		send, recv := r.Alloc(np*per), r.Alloc(np*per)
		for n := sim.Time(1); n <= 4+2*20+1; n++ { // to the last measured period
			ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), per))
			if r.RankID() == 0 {
				calls++
			}
			r.Proc().Sleep(n*period - r.Now())
		}
	})
	cl.K.RunUntil(4 * period)
	before := calls
	allocs := testing.AllocsPerRun(1, func() { cl.K.RunUntil(cl.K.Now() + 20*period) })
	if calls-before != 40 { // AllocsPerRun runs f once more, to warm up
		t.Fatalf("%d calls in 40 periods, want one per period", calls-before)
	}
	fw.Stop()
	cl.K.Shutdown()
	return allocs / 20 / float64(nodes*ppn)
}

// A warm replayed Ialltoall + Wait allocates nothing on any path: on the
// host library the library's CollRequest goes back to the world's free list
// at WaitColl, on the proxies nothing is new, and through an engine no more
// than on the path it picks — a call's record is reused once Wait has put
// it back.
func TestCollCallAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name    string
		offload bool
		eng     *policy.Engine
		max     float64
	}{
		{"host", false, nil, 0},
		{"offload", true, nil, 0},
		{"engine", true, policy.NewEngine(onePath(datapath.KindCrossGVMI), nil), 0},
		{"engine to host", true, policy.NewEngine(onePath(datapath.KindHostDirect), nil), 0},
	} {
		if a := callAllocs(t, c.offload, c.eng); a > c.max {
			t.Errorf("%s: a warm Ialltoall + Wait allocates %.2f objects per rank, want <= %.0f", c.name, a, c.max)
		}
	}
}
