package baseline

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datapath"
)

func TestProposedConfigIsGVMIWithCaches(t *testing.T) {
	cfg := ProposedConfig()
	if cfg.Path != datapath.KindCrossGVMI || !cfg.RegCaches || !cfg.GroupCache {
		t.Fatalf("proposed preset wrong: %+v", cfg)
	}
	if cfg.WarmupPerOp != 0 {
		t.Fatal("proposed design must not pay a warm-up penalty")
	}
}

func TestBluesMPIConfigModelsThePaper(t *testing.T) {
	cfg := BluesMPIConfig()
	if cfg.Path != datapath.KindStaged {
		t.Fatal("BluesMPI must stage through DPU memory")
	}
	if cfg.GroupCache {
		t.Fatal("BluesMPI re-exchanges metadata per call")
	}
	if cfg.WarmupPerOp <= 0 || cfg.WarmupCalls <= 0 {
		t.Fatal("BluesMPI must model the first-iterations degradation")
	}
}

func TestStagingNoWarmupIsolatesMechanism(t *testing.T) {
	cfg := StagingNoWarmupConfig()
	if cfg.Path != datapath.KindStaged {
		t.Fatal("wrong mechanism")
	}
	if cfg.WarmupPerOp != 0 {
		t.Fatal("no-warmup preset must not include the warm-up penalty")
	}
	if !cfg.GroupCache {
		t.Fatal("mechanism isolation keeps all caches enabled")
	}
}

// A paper label resolves to the bundle of that name, and an unknown name's
// error lists all eight bundles.
func TestPolicyBundleResolvesLabels(t *testing.T) {
	for label, name := range map[string]string{NameProposed: "gvmi", NameBluesMPI: "bluesmpi", NameIntelMPI: "hostdirect"} {
		b, err := PolicyBundle(label)
		want, _ := PolicyBundle(name)
		if err != nil || b.Name != want.Name || b.Label != want.Label || want.Label != label {
			t.Errorf("PolicyBundle(%q) = %q/%q, %v; want the %q bundle", label, b.Name, b.Label, err, name)
		}
	}
	names := PolicyNames()
	if len(names) != 8 || !slices.IsSorted(names) {
		t.Fatalf("PolicyNames() = %v, want eight sorted names", names)
	}
	_, err := PolicyBundle("Nope")
	for _, n := range names {
		if err == nil || !strings.Contains(err.Error(), n) {
			t.Errorf("unknown bundle error %v does not list %q", err, n)
		}
	}
	if _, err := PolicyBundle(""); err == nil {
		t.Error(`PolicyBundle("") resolved an extension bundle's empty label`)
	}
}
