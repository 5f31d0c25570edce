package bench

import (
	"os"
	"path/filepath"
	"testing"
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
