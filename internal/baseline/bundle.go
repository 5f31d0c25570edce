package baseline

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/policy"
)

// Bundle pairs an offload policy with the substrate it runs on: whether a
// framework (proxies) is built at all, which core.Config to build it with,
// and a constructor for the policy instance (fresh per environment — a
// measuring policy's learned table must not leak between runs).
//
// The fixed bundles reproduce the scheme presets bit-exactly: "gvmi" is the
// Proposed scheme, "bluesmpi" is the BluesMPI scheme, "hostdirect" is the
// IntelMPI scheme, and "staged" is the staging mechanism without BluesMPI's
// warm-up/cache handicaps (the mechanism ablation's configuration).
type Bundle struct {
	// Name is the CLI value (-policy <name>).
	Name string
	// Framework reports whether the environment needs DPU proxies at all.
	Framework bool
	// Core returns the framework configuration (meaningful only when
	// Framework is true).
	Core func() core.Config
	// New constructs the policy instance for one environment.
	New func() policy.Policy
}

// bundles maps -policy values to their substrate + policy pairs.
var bundles = map[string]Bundle{
	"gvmi": {
		Name: "gvmi", Framework: true, Core: ProposedConfig,
		New: func() policy.Policy { return policy.Fixed{Path: datapath.KindCrossGVMI} },
	},
	"staged": {
		Name: "staged", Framework: true, Core: StagingNoWarmupConfig,
		New: func() policy.Policy { return policy.Fixed{Path: datapath.KindStaged} },
	},
	"bluesmpi": {
		Name: "bluesmpi", Framework: true, Core: BluesMPIConfig,
		New: func() policy.Policy { return policy.Fixed{Path: datapath.KindStaged} },
	},
	"hostdirect": {
		Name: "hostdirect", Framework: false, Core: nil,
		New: func() policy.Policy { return policy.Fixed{Path: datapath.KindHostDirect} },
	},
	"adaptive": {
		Name: "adaptive", Framework: true, Core: ProposedConfig,
		New: func() policy.Policy { return policy.Adaptive{} },
	},
	"aware": {
		Name: "aware", Framework: true, Core: ProposedConfig,
		New: func() policy.Policy { return policy.Aware{} },
	},
	"measure": {
		Name: "measure", Framework: true, Core: ProposedConfig,
		New: func() policy.Policy { return policy.NewFeedback(policy.FeedbackConfig{}) },
	},
	"feedback": {
		Name: "feedback", Framework: true, Core: ProposedConfig,
		New: func() policy.Policy { return policy.NewFeedback(policy.DefaultFeedbackConfig()) },
	},
}

// PolicyBundle resolves a -policy value.
func PolicyBundle(name string) (Bundle, error) {
	b, ok := bundles[name]
	if !ok {
		return Bundle{}, fmt.Errorf("baseline: unknown policy %q (have %v)", name, PolicyNames())
	}
	return b, nil
}

// PolicyNames lists the known -policy values, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(bundles))
	for n := range bundles {
		names = append(names, n)
	}
	sort.Strings(names)
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
		if !b.Framework {
			continue
		}
		if b.Core == nil {
			return core.Config{}, fmt.Errorf("baseline: policy %q has no core config", n)
		}
		if b.Core() != ProposedConfig() {
			return core.Config{}, fmt.Errorf("baseline: policy %q needs core config %+v, which cannot be shared by a multi-tenant framework", n, b.Core())
		}
	}
	return ProposedConfig(), nil
}
