package device

import (
	"reflect"
	"strings"
	"testing"
)

func TestLookupKnownProfiles(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, p.Name)
		}
		if p.ARMCores <= 0 || p.ARMSpeed <= 0 || p.ProxiesPerDPU <= 0 || p.StagingGBps <= 0 {
			t.Errorf("%s has degenerate resources: %+v", name, p)
		}
		if p.HostPort.Overhead <= 0 || p.DPUPort.Overhead <= 0 {
			t.Errorf("%s has degenerate ports: %+v", name, p)
		}
		if p.HasDSA && p.DSAPort.Overhead <= 0 {
			t.Errorf("%s claims a DSA engine with a degenerate port", name)
		}
		if MustLookup(name) != p {
			t.Errorf("MustLookup(%q) disagrees with Lookup", name)
		}
	}
	if _, err := Lookup("bf9"); err == nil {
		t.Fatal("Lookup of an unknown profile succeeded")
	}
	if !sortedStrings(Names()) {
		t.Fatalf("Names() not sorted: %v", Names())
	}
}

func sortedStrings(ss []string) bool {
	for i := 1; i < len(ss); i++ {
		if ss[i-1] >= ss[i] {
			return false
		}
	}
	return true
}

func TestBaselineIsBF2(t *testing.T) {
	if BaselineName != "bf2" {
		t.Fatalf("baseline = %q, want bf2", BaselineName)
	}
	if Baseline() != MustLookup("bf2") {
		t.Fatal("Baseline() is not the bf2 profile")
	}
}

func TestGenericIsFullCapsAndUnnamed(t *testing.T) {
	g := Generic(MustLookup("bf2").HostPort, MustLookup("bf2").DPUPort)
	if g.Name != "" {
		t.Fatalf("generic profile is named %q; legacy configs must stay label-free", g.Name)
	}
	if !g.CrossGVMI {
		t.Fatal("generic profile lacks cross-GVMI; legacy datapaths would degrade")
	}
	if g.HasDSA {
		t.Fatal("generic profile claims a DSA engine the legacy simulator never had")
	}
}

func TestMergeIsWeakestCommonCapabilitySet(t *testing.T) {
	bf2, bf3 := MustLookup("bf2"), MustLookup("bf3")
	ipu := MustLookup("ipu-e2100")
	dsa := MustLookup("dsa-offpath")

	m := Merge([]Profile{bf2, bf3})
	if !m.CrossGVMI || m.HasDSA {
		t.Fatalf("bf2+bf3 merge = gvmi:%v dsa:%v, want gvmi-only", m.CrossGVMI, m.HasDSA)
	}
	m = Merge([]Profile{bf2, ipu})
	if m.CrossGVMI {
		t.Fatal("merge with a non-GVMI part kept cross-GVMI")
	}
	m = Merge([]Profile{dsa, dsa})
	if !m.HasDSA || m.CrossGVMI {
		t.Fatalf("dsa-only merge = gvmi:%v dsa:%v, want dsa-only", m.CrossGVMI, m.HasDSA)
	}
	m = Merge([]Profile{bf2, dsa})
	if m.CrossGVMI || m.HasDSA {
		t.Fatal("bf2+dsa merge kept a capability only one part has")
	}
	if Merge(nil) != Baseline() {
		t.Fatal("empty merge is not the baseline profile")
	}
	// Merging one profile is the identity on capabilities and is labelled
	// as a fleet summary, not as the part itself.
	m = Merge([]Profile{bf3})
	if !m.CrossGVMI || m.HasDSA || m.Name != "fleet" {
		t.Fatalf("single-profile merge = %+v, want bf3 caps named \"fleet\"", m)
	}
}

func TestExpandFleetGrammar(t *testing.T) {
	ok := []struct {
		spec  string
		nodes int
		want  []string
	}{
		{"bf2", 3, []string{"bf2", "bf2", "bf2"}},
		{"bf2:2,bf3:2", 4, []string{"bf2", "bf2", "bf3", "bf3"}},
		{"bf3:1,bf2:1,bf3:1", 3, []string{"bf3", "bf2", "bf3"}},
		{" bf2:2 , bf3:2 ", 4, []string{"bf2", "bf2", "bf3", "bf3"}},
	}
	for _, c := range ok {
		got, err := ExpandFleet(c.spec, c.nodes)
		if err != nil {
			t.Fatalf("ExpandFleet(%q, %d): %v", c.spec, c.nodes, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ExpandFleet(%q, %d) = %v, want %v", c.spec, c.nodes, got, c.want)
		}
	}
	bad := []struct {
		spec  string
		nodes int
	}{
		{"", 2},                        // empty spec
		{"bf2:1", 2},                   // counts under the node count
		{"bf2:3", 2},                   // counts over the node count
		{"bf2:2,bf3:1", 4},             // sum mismatch
		{"bf9:2", 2},                   // unknown profile
		{"bf2:0,bf3:2", 2},             // zero count
		{"bf2:-1,bf3:3", 2},            // negative count
		{"bf2:x", 2},                   // malformed count
		{"bf2:9223372036854775807", 2}, // used to expand count entries before comparing with nodes
	}
	for _, c := range bad {
		if _, err := ExpandFleet(c.spec, c.nodes); err == nil {
			t.Errorf("ExpandFleet(%q, %d) accepted a bad spec", c.spec, c.nodes)
		}
	}
}

func TestWriteMatrixListsEveryProfile(t *testing.T) {
	var sb strings.Builder
	WriteMatrix(&sb)
	out := sb.String()
	for _, name := range Names() {
		if !strings.Contains(out, name) {
			t.Errorf("capability matrix missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "CROSS-GVMI") || !strings.Contains(out, "DSA") {
		t.Errorf("capability matrix missing capability columns:\n%s", out)
	}
}
