package bench

import (
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
)

// TestInstallBytesPerPair pins the footprint of the paper's O(n²) install on
// a fresh 16×8 build: one gvmi Ialltoall that installs its group requests
// and one that replays them, and three BluesMPI ones, each of which
// re-gathers and re-installs (no group cache). The state that grows with
// the (rank, peer) pairs — the event arena, the pooled records, the verbs
// and gvmi key tables, the wire entries, the registration caches — is what
// the run allocates, so a table that goes back to doubling, or a fatter
// record, shows in the bytes per pair; a record that stops coming from its
// slab shows in the objects. Both budgets are the values measured when they
// were set, plus 2 %. The third BluesMPI call re-installs into the storage
// of the one before, and allocates no bytes per pair: at most warmPerRank
// per rank, whatever the rank's peer count (the gvmi replay may still carve
// pooled records, as its burst can peak above the install's). The test is
// not parallel: runtime.MemStats counts the whole process.
func TestInstallBytesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations vary from run to run")
	}
	const nodes, ppn, size = 16, 8, 32 << 10
	const np = nodes * ppn
	const warmPerRank = 512
	for _, c := range []struct {
		scheme                string
		calls                 int
		bytesPerPair, mallocs float64
		reinstall             bool // the last call re-installs
	}{
		{"gvmi", 2, 958.5 * 1.02, 14143 * 1.02, false},
		{"bluesmpi", 3, 1265.6 * 1.02, 17396 * 1.02, true},
	} {
		var before, after, warm, end runtime.MemStats
		runtime.ReadMemStats(&before)
		e := Build(Options{Nodes: nodes, PPN: ppn, Scheme: c.scheme})
		e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
			send, recv := r.Alloc(np*size), r.Alloc(np*size)
			for call := 1; call <= c.calls; call++ {
				if call == c.calls {
					r.Barrier()
					if r.RankID() == 0 {
						runtime.ReadMemStats(&warm)
					}
					r.Barrier()
				}
				ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
			}
			r.Barrier()
			if r.RankID() == 0 {
				runtime.ReadMemStats(&end)
			}
		})
		runtime.ReadMemStats(&after)
		perPair := float64(after.TotalAlloc-before.TotalAlloc) / (np * (np - 1))
		objs := after.Mallocs - before.Mallocs
		perRank := float64(end.TotalAlloc-warm.TotalAlloc) / np
		t.Logf("%s: %.1f bytes allocated per (rank, peer) pair, %d objects; the warm call %.0f bytes per rank",
			c.scheme, perPair, objs, perRank)
		if perPair > c.bytesPerPair {
			t.Errorf("%s: %d calls allocated %.1f bytes per (rank, peer) pair, budget %.1f", c.scheme, c.calls, perPair, c.bytesPerPair)
		}
		if float64(objs) > c.mallocs {
			t.Errorf("%s: %d calls allocated %d objects, budget %.0f", c.scheme, c.calls, objs, c.mallocs)
		}
		if c.reinstall && perRank > warmPerRank {
			t.Errorf("%s: a warm re-install allocated %.0f bytes per rank (%.1f per pair), want at most %d whatever the peer count",
				c.scheme, perRank, perRank/(np-1), warmPerRank)
		}
	}
}
