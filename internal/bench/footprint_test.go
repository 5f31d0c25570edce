package bench

import (
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// TestInstallBytesPerPair pins the footprint of the paper's O(n²) install:
// a fresh 16×8 build, one gvmi Ialltoall that installs its group requests
// and one that replays them. The state that grows with the (rank, peer)
// pairs — the event arena, the free lists, the verbs and gvmi key tables,
// the wire entries, the registration caches — is what the run allocates,
// so a table that goes back to append's quarter growth, or a fatter wire
// entry, shows in the bytes per pair; a record that stops coming from its
// slab shows in the objects. Both budgets are the values measured when they
// were set, plus 2 %. The test is not parallel: runtime.MemStats counts the
// whole process.
func TestInstallBytesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations vary from run to run")
	}
	const nodes, ppn, size = 16, 8, 32 << 10
	const np = nodes * ppn
	const (
		bytesPerPair = 1222.7 * 1.02
		mallocs      = 13642 * 1.02
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := Build(Options{Nodes: nodes, PPN: ppn, Scheme: "gvmi"})
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		send, recv := r.Alloc(np*size), r.Alloc(np*size)
		for range 2 {
			ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
		}
	})
	runtime.ReadMemStats(&after)
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / (np * (np - 1))
	objs := after.Mallocs - before.Mallocs
	t.Logf("%.1f bytes allocated per (rank, peer) pair, %d objects", perPair, objs)
	if perPair > bytesPerPair {
		t.Errorf("an install and a replay allocated %.1f bytes per (rank, peer) pair, budget %.1f", perPair, bytesPerPair)
	}
	if float64(objs) > mallocs {
		t.Errorf("an install and a replay allocated %d objects, budget %.0f", objs, mallocs)
	}
}
