package figures

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
)

func TestHPLSizeFor(t *testing.T) {
	t.Parallel()
	// 16 nodes x 256 GB at 75%: N = sqrt(0.75*16*256e9/8) ~ 619k.
	n := HPLSizeFor(16, 256, 75, 256)
	if n%256 != 0 {
		t.Fatalf("N=%d not a multiple of NB", n)
	}
	if n < 600000 || n > 640000 {
		t.Fatalf("N=%d outside the expected range for the paper's 75%% point", n)
	}
	// Tiny fractions clamp to a workable minimum.
	if n := HPLSizeFor(1, 1, 1, 256); n < 512 {
		t.Fatalf("clamped N=%d too small", n)
	}
}

func TestFig2ShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	tab := Fig2(bench.SweepEnv{}, 5)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Latency ratio close to 1 across all sizes (the Figure 2 claim).
	for _, row := range tab.Rows {
		ratio := row[3]
		if !(strings.HasPrefix(ratio, "1.0") || strings.HasPrefix(ratio, "1.1") || strings.HasPrefix(ratio, "1.2")) {
			t.Fatalf("size %s: DPU/host latency ratio %s not close to 1", row[0], ratio)
		}
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	t.Parallel()
	rows := bench.MeasureRDMABandwidth(bench.SweepEnv{}, []int{4096, 4 << 20}, 64, 2)
	small, large := rows[0].Normalized, rows[1].Normalized
	if small > 0.75 {
		t.Fatalf("small-message normalized bandwidth %.2f, want ~0.5", small)
	}
	if large < 0.9 {
		t.Fatalf("large-message normalized bandwidth %.2f, want ~1", large)
	}
}

func TestFig4StagingDegrades(t *testing.T) {
	t.Parallel()
	staging := baseline.StagingNoWarmupConfig()
	host := bench.MeasurePingpongNB(bench.Options{Nodes: 2, PPN: 1, Scheme: baseline.NameIntelMPI}, 256<<10, 1, 3)
	staged := bench.MeasurePingpongNB(bench.Options{Nodes: 2, PPN: 1, Scheme: baseline.NameBluesMPI, Core: &staging}, 256<<10, 1, 3)
	if ratio := float64(staged) / float64(host); ratio < 1.3 {
		t.Fatalf("staging degradation %.2f, want > 1.3 (Figure 4)", ratio)
	}
}

func TestFig5CrossRegCostsMore(t *testing.T) {
	t.Parallel()
	tab := Fig5()
	for _, row := range tab.Rows {
		if row[1] >= row[2] && len(row[1]) >= len(row[2]) {
			t.Fatalf("size %s: host reg %s not cheaper than cross reg %s", row[0], row[1], row[2])
		}
	}
}

// Determinism: identical options must produce byte-identical results across
// independent simulations.
func TestMeasurementsDeterministic(t *testing.T) {
	t.Parallel()
	opt := bench.Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed}
	a := bench.MeasureIalltoall(opt, 32<<10, 1, 2)
	b := bench.MeasureIalltoall(opt, 32<<10, 1, 2)
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestAblationsProduceTables(t *testing.T) {
	t.Parallel()
	tables := Ablations(bench.SweepEnv{}, 2, 1, 1)
	if len(tables) != 4 {
		t.Fatalf("got %d ablation tables, want 4", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("ablation %q has no rows", tab.Title)
		}
	}
}

func TestFig13ProposedWinsAtScaleSizes(t *testing.T) {
	t.Parallel()
	t13s, t14s := Fig13And14(bench.SweepEnv{}, []int{2}, 4, []int{128 << 10}, 4, 2)
	if len(t13s) != 1 || len(t13s[0].Rows) != 1 {
		t.Fatal("unexpected table shape")
	}
	// At 128K the proposed scheme must beat both baselines (columns:
	// size, bluesmpi, proposed, intelmpi, ...).
	row := t13s[0].Rows[0]
	var blues, prop, intel float64
	for i, v := range []*float64{&blues, &prop, &intel} {
		f, err := strconv.ParseFloat(row[i+1], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[i+1])
		}
		*v = f
	}
	if prop >= blues || prop >= intel {
		t.Fatalf("proposed (%v) must beat BluesMPI (%v) and IntelMPI (%v) at 128K", prop, blues, intel)
	}
	if len(t14s[0].Rows) != 1 {
		t.Fatal("fig14 table empty")
	}
}

func TestFig11And12SmallScale(t *testing.T) {
	t.Parallel()
	t11, t12 := Fig11And12(bench.SweepEnv{}, 2, 2, 1, 1, []int{128})
	if len(t11.Rows) != 1 || len(t12.Rows) != 1 {
		t.Fatal("stencil tables wrong shape")
	}
}

func TestFig15SmallScale(t *testing.T) {
	t.Parallel()
	tab := Fig15(bench.SweepEnv{}, 2, 2, []int{8 << 10}, 1, 1, true)
	if len(tab.Rows) != 1 {
		t.Fatal("fig15 table wrong shape")
	}
}

func TestFig16SmallScale(t *testing.T) {
	t.Parallel()
	tab := Fig16(bench.SweepEnv{}, 2, 2, 64, []int{64}, 1)
	if len(tab.Rows) != 1 {
		t.Fatal("fig16 table wrong shape")
	}
	prof := Fig16C(bench.SweepEnv{}, 2, 2, 64, 64, 1)
	if len(prof.Rows) != 3 {
		t.Fatal("fig16c table wrong shape")
	}
}

func TestFig17SmallScale(t *testing.T) {
	t.Parallel()
	tab := Fig17(bench.SweepEnv{}, 2, 2, 1, 128, []int{5})
	if len(tab.Rows) != 1 {
		t.Fatal("fig17 table wrong shape")
	}
}

func TestExtTablesSmallScale(t *testing.T) {
	t.Parallel()
	if tab := ExtBF3(bench.SweepEnv{}, 2, 2, []int{8 << 10}, 1, 1); len(tab.Rows) != 1 {
		t.Fatal("ext-bf3 wrong shape")
	}
	if tab := ExtIallgather(bench.SweepEnv{}, 2, 2, []int{8 << 10}, 1, 1); len(tab.Rows) != 1 {
		t.Fatal("ext-allgather wrong shape")
	}
}
