package bench

import (
	"fmt"

	"repro/internal/baseline"
)

// ScaleSchema is the schema tag of the scaling snapshot (BENCH_scale.json);
// bump it when the layout changes incompatibly.
const ScaleSchema = "offload-scale/v1"

// ScaleRanks are the default rank counts of the scaling sweep. The paper's
// evaluation stops at 16 nodes x 32 PPN (512 ranks); ROADMAP item 1 asks
// whether the fig-shape claims survive at 1024+, which is what the largest
// point pins.
var ScaleRanks = []int{128, 256, 512, 1024}

// ScaleSchemeResult is one scheme's timings at one rank count.
type ScaleSchemeResult struct {
	Scheme string `json:"scheme"`
	Timings
}

// ScalePoint is one rank count of the sweep: the fig13 Ialltoall overlap
// benchmark measured for every scheme, plus the proposed scheme's headline
// improvements.
type ScalePoint struct {
	Ranks         int                 `json:"ranks"`
	Nodes         int                 `json:"nodes"`
	PPN           int                 `json:"ppn"`
	Schemes       []ScaleSchemeResult `json:"schemes"`
	VsBluesMPIPct float64             `json:"vs_bluesmpi_pct"` // proposed overall-time gain
	VsIntelMPIPct float64             `json:"vs_intelmpi_pct"`
}

// Scheme returns the named scheme's result (zero value when absent).
func (p ScalePoint) Scheme(name string) ScaleSchemeResult {
	for _, s := range p.Schemes {
		if s.Scheme == name {
			return s
		}
	}
	return ScaleSchemeResult{}
}

// ScaleConfig records the environment the series was measured under.
type ScaleConfig struct {
	PPN    int   `json:"ppn"`
	Size   int   `json:"size"`
	Warmup int   `json:"warmup"`
	Iters  int   `json:"iters"`
	Ranks  []int `json:"ranks"`
}

// ScaleSnapshot is the checked-in scaling baseline. Unlike the fig13 and
// tenants snapshots it carries no metrics section: a 1024-rank run exports
// on the order of a thousand per-proxy series, which would bloat the file
// without pinning anything the timings do not already pin.
type ScaleSnapshot struct {
	Schema string       `json:"schema"`
	Figure string       `json:"figure"`
	Config ScaleConfig  `json:"config"`
	Series []ScalePoint `json:"series"`
}

// scaleSchemes is the measurement order at each point (matching the fig13
// sweep's nesting so run order is deterministic).
var scaleSchemes = []string{baseline.NameBluesMPI, baseline.NameProposed, baseline.NameIntelMPI}

// ScaleSeries measures every (ranks, scheme) point of cfg. Runs are
// independent simulations distributed by the sweep runner, so results are
// byte-identical at any -parallel value.
func ScaleSeries(env SweepEnv, cfg ScaleConfig) []ScalePoint {
	nsch := len(scaleSchemes)
	res := make([]NBCResult, len(cfg.Ranks)*nsch)
	env.Sweep(len(res), func(j int, env SweepEnv) {
		ranks := cfg.Ranks[j/nsch]
		scheme := scaleSchemes[j%nsch]
		nodes := ranks / cfg.PPN
		res[j] = MeasureIalltoall(env.Attach(Options{
			Nodes: nodes, PPN: cfg.PPN, Scheme: scheme, Backed: false,
		}), cfg.Size, cfg.Warmup, cfg.Iters)
	})
	series := make([]ScalePoint, len(cfg.Ranks))
	for i, ranks := range cfg.Ranks {
		pt := ScalePoint{Ranks: ranks, Nodes: ranks / cfg.PPN, PPN: cfg.PPN}
		for k, scheme := range scaleSchemes {
			pt.Schemes = append(pt.Schemes, ScaleSchemeResult{Scheme: scheme, Timings: timingsOf(res[i*nsch+k])})
		}
		b := pt.Scheme(baseline.NameBluesMPI).OverallNS
		p := pt.Scheme(baseline.NameProposed).OverallNS
		in := pt.Scheme(baseline.NameIntelMPI).OverallNS
		pt.VsBluesMPIPct = 100 * (1 - float64(p)/float64(b))
		pt.VsIntelMPIPct = 100 * (1 - float64(p)/float64(in))
		series[i] = pt
	}
	return series
}

// DefaultScaleConfig is the checked-in baseline's configuration: the fig13
// shape (32 KB per peer, PPN 8) from 128 to 1024 ranks, one measured
// iteration after one warmup (a 1024-rank alltoall posts ~1M writes per
// iteration; more iterations change wall-clock, not virtual results, which
// are exact at any count).
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{PPN: 8, Size: 32 << 10, Warmup: 1, Iters: 1, Ranks: ScaleRanks}
}

// MeasureScale runs the default scaling sweep and packages it.
func MeasureScale(env SweepEnv, cfg ScaleConfig) ScaleSnapshot {
	return ScaleSnapshot{
		Schema: ScaleSchema,
		Figure: "scale",
		Config: cfg,
		Series: ScaleSeries(env, cfg),
	}
}

// Validate checks schema conformance and the fig-shape claims at every
// measured rank count — the reason this snapshot exists:
//
//   - the proposed scheme beats both BluesMPI and IntelMPI on overall time
//     (Figure 13's ordering),
//   - offloaded progression keeps near-total overlap while the host-based
//     scheme cannot (Figure 14's shape: proposed ≥ 90%, and strictly above
//     IntelMPI),
//   - the proposed scheme's advantage does not shrink with scale: the gain
//     at the largest rank count is within 2 points of the gain at the
//     smallest or better (the paper reports 25/30/47% at 4/8/16 nodes,
//     growing with node count; in this simulator the gain saturates around
//     91% by 128 ranks, so the pin is "stays saturated", not "keeps
//     growing").
func (s ScaleSnapshot) Validate() error {
	if s.Schema != ScaleSchema {
		return fmt.Errorf("bench: scale schema %q, want %q", s.Schema, ScaleSchema)
	}
	if s.Figure == "" {
		return fmt.Errorf("bench: scale snapshot has no figure name")
	}
	c := s.Config
	if c.PPN <= 0 || c.Size <= 0 || c.Iters <= 0 || c.Warmup < 0 || len(c.Ranks) == 0 {
		return fmt.Errorf("bench: incomplete scale config %+v", c)
	}
	if len(s.Series) != len(c.Ranks) {
		return fmt.Errorf("bench: %d series points for %d rank counts", len(s.Series), len(c.Ranks))
	}
	for i, pt := range s.Series {
		if pt.Ranks != c.Ranks[i] || pt.Nodes*pt.PPN != pt.Ranks {
			return fmt.Errorf("bench: series[%d] shape %d ranks = %d nodes x %d ppn, config wants %d",
				i, pt.Ranks, pt.Nodes, pt.PPN, c.Ranks[i])
		}
		if len(pt.Schemes) != len(scaleSchemes) {
			return fmt.Errorf("bench: series[%d] has %d schemes, want %d", i, len(pt.Schemes), len(scaleSchemes))
		}
		b := pt.Scheme(baseline.NameBluesMPI)
		p := pt.Scheme(baseline.NameProposed)
		in := pt.Scheme(baseline.NameIntelMPI)
		for _, r := range []ScaleSchemeResult{b, p, in} {
			if err := r.plausible(); err != nil {
				return fmt.Errorf("bench: series[%d] scheme %q: %w", i, r.Scheme, err)
			}
		}
		if p.OverallNS >= b.OverallNS || p.OverallNS >= in.OverallNS {
			return fmt.Errorf("bench: series[%d] (%d ranks) loses the fig13 ordering: proposed %d vs bluesmpi %d / intelmpi %d",
				i, pt.Ranks, p.OverallNS, b.OverallNS, in.OverallNS)
		}
		if p.OverlapPct < 90 {
			return fmt.Errorf("bench: series[%d] (%d ranks) proposed overlap %.1f%% below the fig14 shape (>= 90%%)",
				i, pt.Ranks, p.OverlapPct)
		}
		if p.OverlapPct <= in.OverlapPct {
			return fmt.Errorf("bench: series[%d] (%d ranks) proposed overlap %.1f%% does not beat intelmpi %.1f%%",
				i, pt.Ranks, p.OverlapPct, in.OverlapPct)
		}
	}
	first, last := s.Series[0], s.Series[len(s.Series)-1]
	if last.VsBluesMPIPct < first.VsBluesMPIPct-2 {
		return fmt.Errorf("bench: proposed advantage shrinks with scale: %.1f%% at %d ranks vs %.1f%% at %d ranks",
			last.VsBluesMPIPct, last.Ranks, first.VsBluesMPIPct, first.Ranks)
	}
	return nil
}
