// Package device is the vendor-agnostic SmartNIC substrate: every
// hardware-dependent constant the simulator used to hard-code (host and
// ARM injection overheads, line rates, cross-GVMI support, staging memory
// bandwidth, proxy worker counts) lives in a named Profile, and the rest
// of the stack — cluster assembly, datapath selection, the policy engine,
// the benches — consumes capabilities instead of constants.
//
// The paper's entire cost model hangs on one hard-coded fact: BlueField-2
// ARM cores pay ~2.4x the per-message injection overhead of host cores.
// "Demystifying Datapath Accelerator Enhanced Off-path SmartNIC"
// (PAPERS.md) shows off-path parts whose DSA engines bypass the ARM cores
// entirely, and the dpu-operator model manages BlueField-2/3, Intel IPU
// and Octeon behind one plugin interface. This package mirrors that: a
// registry of profiles (bf2, bf3, ipu-e2100, dsa-offpath), per-node
// assignment for mixed fleets, and capability accessors for the layers
// that must behave differently per device.
//
// The bf2 profile IS the paper's testbed: cluster.DefaultConfig is a
// lookup of it, pinned bit-exactly against the pre-refactor constants by
// the equivalence tests in internal/cluster and the checked-in
// BENCH_fig13.json.
package device

import (
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Profile describes one SmartNIC/DPU part: everything the simulator needs
// to model a node built around it.
type Profile struct {
	// Name is the registry key ("" for ad-hoc profiles).
	Name string

	// ARMCores is the number of wimpy cores on the NIC SoC available to
	// proxy workers; ARMSpeed is their single-thread speed relative to a
	// host core (1.0 = host-equivalent). Informational today — the
	// injection overheads below already bake the posting-speed difference
	// in — and reported in the capability matrix.
	ARMCores int
	ARMSpeed float64

	// HostPort / DPUPort are the injection parameters of the node's
	// host-driven HCA port and its NIC-core-driven port. The overhead gap
	// between them is the paper's Figure 2/3 observation.
	HostPort fabric.Params
	DPUPort  fabric.Params

	// HasDSA reports a hardware DMA/DSA engine that posts transfers
	// without involving the ARM cores; DSAPort is its injection cost
	// (meaningful only when HasDSA). Engine-driven posting skips the
	// ARM WQE path, so DSAPort.Overhead is typically below even the
	// host port's.
	HasDSA  bool
	DSAPort fabric.Params

	// CrossGVMI reports support for cross-function memory registration
	// (NVIDIA's cross-GVMI mkeys). Profiles without it cannot run the
	// paper's proposed zero-copy path; datapath resolution falls back to
	// the staged path (or the DSA engine when present).
	CrossGVMI bool

	// StagingGBps is the NIC-local DRAM bandwidth backing staged-path
	// bounce buffers, in bytes/ns.
	StagingGBps float64

	// ProxiesPerDPU is the default number of proxy worker processes the
	// part runs comfortably.
	ProxiesPerDPU int

	// Fabric is the interconnect generation the part ships with; used by
	// homogeneous-cluster lookups (a mixed fleet shares the base
	// profile's fabric — there is one switch).
	Fabric fabric.Config
}

// Generic returns the capability view of a cluster configured with raw
// port parameters instead of a named profile: full capabilities (the
// pre-profile simulator always had cross-GVMI and never a DSA engine),
// bf2-class core counts. It keeps legacy Config values behaving exactly
// as before the substrate existed.
func Generic(host, dpu fabric.Params) Profile {
	return Profile{
		HostPort:      host,
		DPUPort:       dpu,
		ARMCores:      8,
		ARMSpeed:      1 / 2.4,
		CrossGVMI:     true,
		StagingGBps:   12.8,
		ProxiesPerDPU: 8,
		Fabric:        fabric.DefaultConfig(),
	}
}

// registry holds the named profiles. Values are returned by copy;
// profiles are immutable after init.
var registry = map[string]Profile{
	// bf2 is the paper's platform: BlueField-2 (8x Cortex-A72) on HDR
	// InfiniBand. These are the exact pre-refactor constants
	// (fabric.HostPortParams / fabric.DPUPortParams and
	// cluster.DefaultConfig), pinned by the equivalence tests.
	"bf2": {
		Name:          "bf2",
		ARMCores:      8,
		ARMSpeed:      1 / 2.4,
		HostPort:      fabric.Params{Overhead: 250 * sim.Nanosecond, GBps: 12.5},
		DPUPort:       fabric.Params{Overhead: 600 * sim.Nanosecond, GBps: 12.5},
		CrossGVMI:     true,
		StagingGBps:   12.8,
		ProxiesPerDPU: 8,
		Fabric:        fabric.DefaultConfig(),
	},
	// bf3 is the paper's Section X future-work platform: BlueField-3
	// (16x Cortex-A78, roughly half the posting overhead) on NDR. The
	// exact pre-refactor fabric.HostPortParamsNDR / DPUPortParamsBF3
	// constants, pinned by the ext-bf3 figure guard.
	"bf3": {
		Name:          "bf3",
		ARMCores:      16,
		ARMSpeed:      220.0 / 350.0,
		HostPort:      fabric.Params{Overhead: 220 * sim.Nanosecond, GBps: 25},
		DPUPort:       fabric.Params{Overhead: 350 * sim.Nanosecond, GBps: 25},
		CrossGVMI:     true,
		StagingGBps:   38.4,
		ProxiesPerDPU: 8,
		Fabric:        fabric.NDRConfig(),
	},
	// ipu-e2100 models an Intel IPU E2100-class part: 200G line rate and
	// competent cores, but no cross-GVMI analogue — the proposed
	// zero-copy path is unavailable and every offloaded transfer rides
	// the staged path (datapath.Resolve enforces the fallback).
	"ipu-e2100": {
		Name:          "ipu-e2100",
		ARMCores:      16,
		ARMSpeed:      0.5,
		HostPort:      fabric.Params{Overhead: 240 * sim.Nanosecond, GBps: 25},
		DPUPort:       fabric.Params{Overhead: 520 * sim.Nanosecond, GBps: 25},
		CrossGVMI:     false,
		StagingGBps:   25.6,
		ProxiesPerDPU: 8,
		Fabric:        fabric.NDRConfig(),
	},
	// dsa-offpath models the "Demystifying DSA" off-path part: few weak
	// wimpy cores, no cross-function registration, but a hardware DSA
	// engine that posts host-memory transfers below even the host port's
	// overhead. Cross-GVMI requests resolve to the engine path.
	"dsa-offpath": {
		Name:          "dsa-offpath",
		ARMCores:      4,
		ARMSpeed:      0.35,
		HostPort:      fabric.Params{Overhead: 250 * sim.Nanosecond, GBps: 12.5},
		DPUPort:       fabric.Params{Overhead: 600 * sim.Nanosecond, GBps: 12.5},
		HasDSA:        true,
		DSAPort:       fabric.Params{Overhead: 180 * sim.Nanosecond, GBps: 12.5},
		CrossGVMI:     false,
		StagingGBps:   12.8,
		ProxiesPerDPU: 4,
		Fabric:        fabric.DefaultConfig(),
	},
}

// BaselineName names the profile every size cutoff in the adaptive policy
// was originally tuned on.
const BaselineName = "bf2"

// Baseline returns the tuning-anchor profile (bf2).
func Baseline() Profile { return registry[BaselineName] }

// Lookup returns the named profile.
func Lookup(name string) (Profile, error) {
	p, ok := registry[name]
	if !ok {
		return Profile{}, fmt.Errorf("device: unknown profile %q (have %v)", name, Names())
	}
	return p, nil
}

// MustLookup is Lookup that panics on unknown names (for callers that
// validated the name at flag-parse time).
func MustLookup(name string) Profile {
	p, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns the registered profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Merge folds a fleet's profiles into one fleet-consistent capability
// summary: boolean capabilities AND (a path must exist everywhere to be a
// fleet-wide choice), overheads take the worst (max), bandwidths the
// slowest (min). Collective operations must make the same
// host-vs-offload decision on every rank, so fleet-global rules consume
// this merged view instead of any single node's.
func Merge(ps []Profile) Profile {
	if len(ps) == 0 {
		return Baseline()
	}
	m := ps[0]
	m.Name = "fleet"
	for _, p := range ps[1:] {
		m.CrossGVMI = m.CrossGVMI && p.CrossGVMI
		m.HasDSA = m.HasDSA && p.HasDSA
		if p.ARMCores < m.ARMCores {
			m.ARMCores = p.ARMCores
		}
		if p.ARMSpeed < m.ARMSpeed {
			m.ARMSpeed = p.ARMSpeed
		}
		m.HostPort = worsePort(m.HostPort, p.HostPort)
		m.DPUPort = worsePort(m.DPUPort, p.DPUPort)
		m.DSAPort = worsePort(m.DSAPort, p.DSAPort)
		if p.StagingGBps < m.StagingGBps {
			m.StagingGBps = p.StagingGBps
		}
		if p.ProxiesPerDPU < m.ProxiesPerDPU {
			m.ProxiesPerDPU = p.ProxiesPerDPU
		}
	}
	return m
}

// worsePort combines two injection parameter sets pessimistically.
func worsePort(a, b fabric.Params) fabric.Params {
	if b.Overhead > a.Overhead {
		a.Overhead = b.Overhead
	}
	if b.GBps > 0 && (a.GBps <= 0 || b.GBps < a.GBps) {
		a.GBps = b.GBps
	}
	return a
}
