package cluster

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/gvmi"
	"repro/internal/sim"
	"repro/internal/verbs"
)

func TestTopologyMapping(t *testing.T) {
	c := New(DefaultConfig(4, 32))
	if got := c.Cfg.NP(); got != 128 {
		t.Fatalf("NP = %d, want 128", got)
	}
	if c.NodeOfRank(0) != 0 || c.NodeOfRank(31) != 0 || c.NodeOfRank(32) != 1 || c.NodeOfRank(127) != 3 {
		t.Fatal("block rank->node mapping wrong")
	}
	if c.LocalRank(33) != 1 {
		t.Fatalf("LocalRank(33) = %d, want 1", c.LocalRank(33))
	}
	if !c.SameNode(0, 31) || c.SameNode(31, 32) {
		t.Fatal("SameNode wrong")
	}
}

func TestProxyMapping(t *testing.T) {
	cfg := DefaultConfig(2, 32)
	cfg.ProxiesPerDPU = 8
	c := New(cfg)
	// proxy_local_rank = local_rank % proxies_per_dpu (Section VII-A).
	if c.ProxyOfRank(0) != 0 || c.ProxyOfRank(8) != 0 || c.ProxyOfRank(9) != 1 || c.ProxyOfRank(39) != 7 {
		t.Fatal("proxy mapping wrong")
	}
}

func TestSitesSeparateSpacesSharedEndpoints(t *testing.T) {
	c := New(DefaultConfig(2, 2))
	a := c.NewHostSite(0, "a")
	b := c.NewHostSite(0, "b")
	d := c.NewDPUSite(0, "d")
	if a.Space == b.Space {
		t.Fatal("host sites share a space")
	}
	if a.Ctx.Endpoint() != b.Ctx.Endpoint() {
		t.Fatal("host sites on one node must share the host port")
	}
	if d.Ctx.Endpoint() == a.Ctx.Endpoint() {
		t.Fatal("DPU site must use the DPU port")
	}
	if !d.OnDPU || a.OnDPU {
		t.Fatal("OnDPU flags wrong")
	}
}

func TestSiteNewCtxSharesEndpointAndSpace(t *testing.T) {
	c := New(DefaultConfig(1, 1))
	s := c.NewHostSite(0, "h")
	ctx2 := s.NewCtx("offload")
	if ctx2.Endpoint() != s.Ctx.Endpoint() || ctx2.Space() != s.Ctx.Space() {
		t.Fatal("NewCtx must share endpoint and space")
	}
	if ctx2 == s.Ctx {
		t.Fatal("NewCtx returned the same context")
	}
}

func TestCopyCost(t *testing.T) {
	c := New(DefaultConfig(1, 1))
	if got := c.CopyCost(6000); got != sim.Time(1000) {
		t.Fatalf("CopyCost(6000) = %v, want 1000ns at 6 GB/s", got)
	}
	cfg := DefaultConfig(1, 1)
	cfg.HostCopyGBps = 0
	if got := New(cfg).CopyCost(1 << 20); got != 0 {
		t.Fatalf("zero-rate CopyCost = %v", got)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	if cfg.ProxiesPerDPU <= 0 || cfg.HostCopyGBps <= 0 || cfg.ShmLatency <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	if cfg.DPUPort.Overhead <= cfg.HostPort.Overhead {
		t.Fatal("DPU port must have higher per-message overhead than host port")
	}
}

func TestBlueField3ConfigFaster(t *testing.T) {
	bf2 := DefaultConfig(2, 2)
	bf3 := ProfileConfig("bf3", 2, 2)
	if bf3.DPUPort.Overhead >= bf2.DPUPort.Overhead {
		t.Fatal("BF3 ARM posting must be faster than BF2")
	}
	if bf3.HostPort.GBps <= bf2.HostPort.GBps {
		t.Fatal("NDR must be faster than HDR")
	}
	if bf3.Fabric.LoopbackGBps <= bf2.Fabric.LoopbackGBps {
		t.Fatal("Gen5 loopback must be faster")
	}
}

// TestProfileEquivalence pins the device-profile lookups to the exact
// pre-substrate hard-coded configurations: DefaultConfig must equal the
// old fabric.HostPortParams/DPUPortParams testbed and the bf3 profile
// the old HostPortParamsNDR/DPUPortParamsBF3 one, field for field. The
// old constants are re-hard-coded here on purpose — this test is the
// record of what the refactor must not move.
func TestProfileEquivalence(t *testing.T) {
	legacyDefault := Config{
		Nodes:         4,
		PPN:           8,
		ProxiesPerDPU: 8,
		Fabric:        fabric.DefaultConfig(),
		HostPort:      fabric.Params{Overhead: 250 * sim.Nanosecond, GBps: 12.5},
		DPUPort:       fabric.Params{Overhead: 600 * sim.Nanosecond, GBps: 12.5},
		Verbs:         verbs.DefaultCosts(),
		GVMI:          gvmi.DefaultCosts(),
		BackedPayload: true,
		HostCopyGBps:  6.0,
		ShmLatency:    200 * sim.Nanosecond,
	}
	if got := DefaultConfig(4, 8); !reflect.DeepEqual(got, legacyDefault) {
		t.Fatalf("DefaultConfig diverged from the pre-substrate testbed:\ngot  %+v\nwant %+v", got, legacyDefault)
	}

	legacyBF3 := legacyDefault
	legacyBF3.Fabric = fabric.NDRConfig()
	legacyBF3.HostPort = fabric.Params{Overhead: 220 * sim.Nanosecond, GBps: 25}
	legacyBF3.DPUPort = fabric.Params{Overhead: 350 * sim.Nanosecond, GBps: 25}
	if got := ProfileConfig("bf3", 4, 8); !reflect.DeepEqual(got, legacyBF3) {
		t.Fatalf("ProfileConfig(bf3) diverged from the pre-substrate platform:\ngot  %+v\nwant %+v", got, legacyBF3)
	}

	// The lookups really are profile-driven, not parallel copies.
	if got := ProfileConfig("bf2", 4, 8); !reflect.DeepEqual(got, legacyDefault) {
		t.Fatalf("ProfileConfig(bf2) != DefaultConfig")
	}
	if got := FromProfile(device.MustLookup("bf3"), 4, 8); !reflect.DeepEqual(got, legacyBF3) {
		t.Fatalf("FromProfile(bf3) != ProfileConfig(bf3)")
	}
}

// A cluster built without NodeProfiles reports generic full-capability
// profiles, and one built with a mixed NodeProfiles list reports the named
// profile per node (with the DSA endpoint only where the part has one).
func TestNodeProfileAssignment(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.NodeProfiles = []string{"bf2", "dsa-offpath"}
	c := New(cfg)
	if got := c.ProfileOf(0).Name; got != "bf2" {
		t.Fatalf("node 0 profile = %q, want bf2", got)
	}
	if got := c.ProfileOf(1).Name; got != "dsa-offpath" {
		t.Fatalf("node 1 profile = %q, want dsa-offpath", got)
	}
	if c.Nodes[0].DSAEP != nil {
		t.Fatal("bf2 node grew a DSA endpoint")
	}
	if c.Nodes[1].DSAEP == nil {
		t.Fatal("dsa-offpath node is missing its DSA endpoint")
	}
	fleet := c.FleetProfile()
	if fleet.CrossGVMI || fleet.HasDSA {
		t.Fatalf("bf2+dsa-offpath fleet merge = gvmi:%v dsa:%v, want neither", fleet.CrossGVMI, fleet.HasDSA)
	}

	labels := c.DeviceLabels()
	if labels["n0.host"] != "bf2" || labels["n1.dsa"] != "dsa-offpath" {
		t.Fatalf("device labels wrong: %v", labels)
	}

	// Legacy cluster: generic profiles, no labels, full caps everywhere.
	plain := New(DefaultConfig(2, 1))
	if name := plain.ProfileOf(0).Name; name != "" {
		t.Fatalf("unprofiled node is named %q", name)
	}
	if !plain.FleetProfile().CrossGVMI {
		t.Fatal("unprofiled fleet lost cross-GVMI")
	}
	if len(plain.DeviceLabels()) != 0 {
		t.Fatalf("unprofiled cluster emitted device labels: %v", plain.DeviceLabels())
	}
}
