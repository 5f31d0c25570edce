package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coll"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// Validate rejects the failure modes the fleet baseline guards against:
// schema drift, a homogeneous section that diverged from fig13, a lost
// crossover, and a missing policy point.
func TestFleetValidateRejects(t *testing.T) {
	t.Parallel()
	figData, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_fig13.json"))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := parse[BenchSnapshot](figData)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	good, err := loadFleet(data, repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(*FleetSnapshot)) error {
		s := good
		s.Homogeneous = append([]BenchPoint(nil), good.Homogeneous...)
		s.Mixed = append([]FleetPoint(nil), good.Mixed...)
		f(&s)
		return s.Validate(fig)
	}
	if err := corrupt(func(s *FleetSnapshot) { s.Schema = "bogus/v0" }); err == nil {
		t.Error("schema drift accepted")
	}
	if err := corrupt(func(s *FleetSnapshot) { s.Homogeneous[0].OverallNS++ }); err == nil {
		t.Error("homogeneous divergence from fig13 accepted")
	}
	if err := corrupt(func(s *FleetSnapshot) {
		for i := range s.Mixed {
			if s.Mixed[i].Policy == "aware" {
				s.Mixed[i].OverallNS = good.Mixed[0].OverallNS + 1<<20
			}
		}
	}); err == nil {
		t.Error("lost crossover accepted")
	}
	if err := corrupt(func(s *FleetSnapshot) { s.Mixed = s.Mixed[:2] }); err == nil {
		t.Error("missing policy point accepted")
	}
	if err := corrupt(func(s *FleetSnapshot) { s.Mixed[0].PureNS = 0 }); err == nil {
		t.Error("non-positive timing accepted")
	}
}

// On a part with a DSA engine and no cross-GVMI, the Proposed bundle's
// transfers resolve to the engine-driven path: each of the 2×2 Ialltoall's
// twelve messages is one write the engine posts from the source's plain IB
// registration, with no staging read and no cross-registration, and every
// block lands intact.
func TestDSADeviceIalltoallPayloads(t *testing.T) {
	t.Parallel()
	const size = 4096
	e := Build(Options{Nodes: 2, PPN: 2, Scheme: "gvmi", Device: "dsa-offpath", Backed: true})
	np := e.Cl.Cfg.NP()
	pattern := func(src, dst, i int) byte { return byte(src*31 + dst*7 + i) }
	bad := 0
	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		me, sp := r.RankID(), r.Space()
		send, recv := r.Alloc(np*size), r.Alloc(np*size)
		blk := make([]byte, size)
		for dst := 0; dst < np; dst++ {
			for i := range blk {
				blk[i] = pattern(me, dst, i)
			}
			sp.WriteAt(send.Addr()+mem.Addr(dst*size), blk, size)
		}
		ops.Wait(ops.Ialltoall(0, send.Addr(), recv.Addr(), size))
		for src := 0; src < np; src++ {
			for i := range blk {
				blk[i] = pattern(src, me, i)
			}
			if !bytes.Equal(sp.ReadAt(recv.Addr()+mem.Addr(src*size), size), blk) {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Errorf("%d blocks corrupted on the DSA path", bad)
	}
	st := e.Fw.Stats()
	if st.RDMAWrites != 12 || st.RDMAReads != 0 || st.StagedOps != 0 {
		t.Errorf("writes=%d reads=%d staged=%d, want 12 engine writes and nothing staged", st.RDMAWrites, st.RDMAReads, st.StagedOps)
	}
	if st.CrossCacheHits+st.CrossCacheMisses != 0 || st.HostIBCacheMisses != 24 {
		t.Errorf("%s: want no cross-registration and 24 IB registrations", st)
	}
}
