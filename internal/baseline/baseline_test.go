package baseline

import (
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
