package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datapath"
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

// Policy returns a fresh policy instance: New's, or else Fixed on the
// bundle's own path (host-direct without proxies).
func (b Bundle) Policy() policy.Policy {
	switch {
	case b.New != nil:
		return b.New()
	case b.Core == nil:
		return policy.Fixed{Path: datapath.KindHostDirect}
	}
	return policy.Fixed{Path: b.Core().Path}
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

// SharedCore resolves the framework configuration for a multi-tenant
// environment whose jobs run the given policies. Tenant jobs share one
// framework, so per-job core configs cannot differ: every framework-backed
// policy must agree on the proposed substrate (staging-handicap bundles
// would silently change the shared proxies for everyone). Host-only
// policies ("hostdirect") are fine — their job just never touches the
// proxies. At least one job must exist; the shared framework is always
// built (other tenants may offload even if one job does not).
func SharedCore(names []string) (core.Config, error) {
	if len(names) == 0 {
		return core.Config{}, fmt.Errorf("baseline: shared core needs at least one policy")
	}
	for _, n := range names {
		b, err := PolicyBundle(n)
		if err != nil {
			return core.Config{}, err
		}
		if b.Core != nil && b.Core() != ProposedConfig() {
			return core.Config{}, fmt.Errorf("baseline: policy %q needs core config %+v, which cannot be shared by a multi-tenant framework", n, b.Core())
		}
	}
	return ProposedConfig(), nil
}
