package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/policy"
)

// Bundle is one system the benchmarks can run: the substrate it runs on
// and how it picks a datapath per operation. The paper's three systems are
// the fixed bundles labelled Proposed ("gvmi"), BluesMPI ("bluesmpi") and
// IntelMPI ("hostdirect"); "staged" is the staging mechanism without
// BluesMPI's warm-up/cache handicaps (the mechanism ablation's
// configuration).
type Bundle struct {
	// Name is the CLI value (-policy <name>).
	Name string
	// Label is the paper's name for the system, empty for the extensions.
	Label string
	// Core returns the framework configuration; nil means no DPU proxies.
	Core func() core.Config
	// New constructs the policy instance for one environment (fresh per
	// environment — a learned table must not leak between runs); nil means
	// every operation runs on the bundle's own path, which needs no engine.
	New func() policy.Policy
}

// bundles are the known systems, sorted by name.
var bundles = []Bundle{
	{Name: "adaptive", Core: ProposedConfig, New: func() policy.Policy { return policy.Adaptive{} }},
	{Name: "aware", Core: ProposedConfig, New: func() policy.Policy { return policy.Aware{} }},
	{Name: "bluesmpi", Label: NameBluesMPI, Core: BluesMPIConfig},
	{Name: "feedback", Core: ProposedConfig, New: func() policy.Policy { return policy.NewFeedback(policy.DefaultFeedbackConfig()) }},
	{Name: "gvmi", Label: NameProposed, Core: ProposedConfig},
	{Name: "hostdirect", Label: NameIntelMPI},
	{Name: "measure", Core: ProposedConfig, New: func() policy.Policy { return policy.NewFeedback(policy.FeedbackConfig{}) }},
	{Name: "staged", Core: StagingNoWarmupConfig},
}

// PolicyBundle resolves a bundle by name or by paper label.
func PolicyBundle(name string) (Bundle, error) {
	for _, b := range bundles {
		if name == b.Name || name != "" && name == b.Label {
			return b, nil
		}
	}
	return Bundle{}, fmt.Errorf("baseline: unknown policy %q (have %v)", name, PolicyNames())
}

// PolicyNames lists the known -policy values, sorted.
func PolicyNames() []string {
	names := make([]string, len(bundles))
	for i, b := range bundles {
		names[i] = b.Name
	}
	return names
}
