// Package cluster assembles the simulated testbed: nodes that each carry a
// host HCA port, a BlueField DPU port, per-process address spaces and verbs
// contexts, plus the shared verbs key registry and GVMI manager.
//
// The default configuration mirrors the paper's platform: dual-socket Xeon
// hosts, one ConnectX-class HCA and one BlueField-2 per node, HDR InfiniBand.
package cluster

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/verbs"
)

// Config describes one simulated cluster.
type Config struct {
	Nodes         int
	PPN           int // host processes per node
	ProxiesPerDPU int // worker processes on each BlueField

	Fabric   fabric.Config
	HostPort fabric.Params
	DPUPort  fabric.Params
	Verbs    verbs.CostConfig
	GVMI     gvmi.CostConfig

	// NodeProfiles assigns a device profile name per node (len == Nodes)
	// for mixed fleets: each named node's ports come from its profile
	// instead of HostPort/DPUPort, and nodes whose profile has a DSA
	// engine get a third (engine) endpoint. Nil or empty entries keep the
	// homogeneous HostPort/DPUPort values above — the pre-substrate
	// behaviour, bit-exact.
	NodeProfiles []string

	// BackedPayload allocates real bytes in every buffer so data integrity
	// can be verified. Figure-scale runs switch it off; virtual-time results
	// are unaffected (costs depend only on sizes).
	BackedPayload bool

	// HostCopyGBps is the single-core memcpy bandwidth used for intra-node
	// (shared-memory) MPI transfers, in bytes/ns.
	HostCopyGBps float64
	// ShmLatency is the intra-node delivery latency for shared-memory
	// messages.
	ShmLatency sim.Time

	// Fault, when non-nil, attaches a deterministic fault injector to the
	// fabric and verbs layers and enables the reliability machinery (retry,
	// timeouts, proxy failover) in the offload framework. Faults or not,
	// every transfer takes the same pooled path, so a plan that injects
	// nothing times and allocates like none (a crash plan adds the
	// framework's crash tolerance).
	Fault *fault.Config

	// Metrics, when non-nil, records per-layer counters, gauges and
	// histograms across fabric, verbs, regcache, core and mpi. Metrics never
	// consume virtual time; nil keeps every fast path untouched (the fig13
	// guards enforce both properties bit-exactly).
	Metrics *metrics.Registry

	// Spans, when non-nil, records the causal span tree (operation ->
	// proxy/group work -> verbs ops -> fabric flights) for critical-path
	// analysis. Like Metrics, span collection never consumes virtual time;
	// nil keeps every fast path untouched.
	Spans *span.Collector

	// Timeline, when non-nil, samples watched Metrics series into
	// fixed-width virtual-time buckets via the kernel's tick hook. It
	// requires Metrics (there is nothing to sample otherwise) and, like
	// the other observers, never consumes virtual time.
	Timeline *telemetry.Recorder
}

// FromProfile builds the standard testbed around one device profile:
// fabric generation, port parameters and proxy count come from the
// profile; host-side properties (memcpy bandwidth, shm latency, verbs and
// GVMI cost models) are the paper's platform defaults.
func FromProfile(p device.Profile, nodes, ppn int) Config {
	return Config{
		Nodes:         nodes,
		PPN:           ppn,
		ProxiesPerDPU: p.ProxiesPerDPU,
		Fabric:        p.Fabric,
		HostPort:      p.HostPort,
		DPUPort:       p.DPUPort,
		Verbs:         verbs.DefaultCosts(),
		GVMI:          gvmi.DefaultCosts(),
		BackedPayload: true,
		HostCopyGBps:  6.0,
		ShmLatency:    200 * sim.Nanosecond,
	}
}

// ProfileConfig is FromProfile by registry name.
func ProfileConfig(name string, nodes, ppn int) Config {
	return FromProfile(device.MustLookup(name), nodes, ppn)
}

// DefaultConfig returns the standard testbed with the given shape: the
// paper's platform, i.e. the bf2 device profile. Equivalence with the
// pre-substrate hard-coded values is pinned by TestProfileEquivalence.
func DefaultConfig(nodes, ppn int) Config {
	return ProfileConfig(device.BaselineName, nodes, ppn)
}

// NP returns the total number of host processes.
func (c Config) NP() int { return c.Nodes * c.PPN }

// Node is one machine: a host port shared by its PPN host processes and a
// DPU port shared by its proxies. Nodes whose device profile carries a
// DSA engine also expose the engine's injection port.
type Node struct {
	ID     int
	HostEP *fabric.Endpoint
	DPUEP  *fabric.Endpoint
	// DSAEP is the hardware DMA/DSA engine port; nil unless the node's
	// profile has one (so default clusters create the exact same
	// endpoint set — and metric series — as before the substrate).
	DSAEP *fabric.Endpoint
	// Profile is the node's resolved device profile.
	Profile device.Profile
}

// Site is the hardware attachment point of one simulated process: its
// address space and verbs context. A process may open extra contexts (e.g.
// one for MPI and one for the offload library) via NewCtx; they share the
// same endpoint and space.
type Site struct {
	Node  *Node
	Space *mem.Space
	Ctx   *verbs.Ctx
	OnDPU bool
}

// NewCtx opens an additional verbs context on the same endpoint and space.
func (s *Site) NewCtx(name string) *verbs.Ctx {
	ep := s.Node.HostEP
	if s.OnDPU {
		ep = s.Node.DPUEP
	}
	return s.Ctx.Registry().NewCtx(name, s.Space, ep)
}

// Cluster is the assembled testbed.
type Cluster struct {
	Cfg  Config
	K    *sim.Kernel
	F    *fabric.Fabric
	Reg  *verbs.Registry
	GVMI *gvmi.Manager

	// Inj is the fault injector built from Cfg.Fault (nil when faults are
	// off). Injected faults and recoveries are counted in Inj.Stats and
	// noted as "fault"-layer spans in Spans.
	Inj *fault.Injector

	// Met is the metrics registry from Cfg.Metrics (nil when metrics are
	// off); downstream layers (core, mpi) instrument themselves through it.
	Met *metrics.Registry

	// Spans is the span collector from Cfg.Spans (nil when span tracing is
	// off); downstream layers create spans through it and propagate parent
	// IDs through their message/descriptor structs.
	Spans *span.Collector

	Nodes []*Node

	bufs pool.Slab[mem.Buffer] // the Buffer records of every site's space
}

// New builds a cluster on a fresh kernel.
func New(cfg Config) *Cluster {
	k := sim.NewKernel()
	f := fabric.New(k, cfg.Fabric)
	reg := verbs.NewRegistry(f, cfg.Verbs)
	c := &Cluster{
		Cfg:  cfg,
		K:    k,
		F:    f,
		Reg:  reg,
		GVMI: gvmi.NewManager(reg, cfg.GVMI),
	}
	if cfg.Fault != nil {
		inj := fault.NewInjector(cfg.Fault, cfg.Spans)
		f.SetInjector(inj)
		reg.SetInjector(inj)
		c.Inj = inj
	}
	if cfg.Metrics.Enabled() {
		// Attach before endpoints are created: endpoints bind their counter
		// handles in NewEndpoint.
		f.SetMetrics(cfg.Metrics)
		reg.SetMetrics(cfg.Metrics)
		c.Met = cfg.Metrics
	}
	if cfg.Spans.Enabled() {
		cfg.Spans.AttachClock(k)
		f.SetSpans(cfg.Spans)
		reg.SetSpans(cfg.Spans)
		c.Spans = cfg.Spans
	}
	if cfg.Timeline.Enabled() {
		cfg.Timeline.Start(k, cfg.Metrics)
	}
	for i := 0; i < cfg.Nodes; i++ {
		p := device.Generic(cfg.HostPort, cfg.DPUPort)
		if i < len(cfg.NodeProfiles) && cfg.NodeProfiles[i] != "" {
			p = device.MustLookup(cfg.NodeProfiles[i])
		}
		n := &Node{
			ID:      i,
			HostEP:  f.NewEndpoint(fmt.Sprintf("n%d.host", i), i, p.HostPort),
			DPUEP:   f.NewEndpoint(fmt.Sprintf("n%d.dpu", i), i, p.DPUPort),
			Profile: p,
		}
		if p.HasDSA {
			n.DSAEP = f.NewEndpoint(fmt.Sprintf("n%d.dsa", i), i, p.DSAPort)
		}
		c.Nodes = append(c.Nodes, n)
	}
	if cfg.Timeline.Enabled() {
		// Nodes exist now, so the recorder can tag per-node series with the
		// owning device profile; a fleet without named profiles yields an
		// empty map and exports stay byte-identical.
		cfg.Timeline.SetDeviceLabels(c.DeviceLabels())
	}
	return c
}

// ProfileOf returns the resolved device profile of one node. Nodes
// without an explicit NodeProfiles entry report the generic full-caps
// profile built from the homogeneous port parameters.
func (c *Cluster) ProfileOf(node int) device.Profile { return c.Nodes[node].Profile }

// FleetProfile returns the fleet-consistent capability merge of every
// node's profile — the view fleet-global (collective) policy rules must
// consume so all ranks decide identically.
func (c *Cluster) FleetProfile() device.Profile {
	ps := make([]device.Profile, len(c.Nodes))
	for i, n := range c.Nodes {
		ps[i] = n.Profile
	}
	return device.Merge(ps)
}

// DeviceLabels maps per-node metric/telemetry entity names ("n3.host",
// "n3.dpu", "n3.dsa", "proxy5") to the owning node's device profile name.
// Empty when no node carries a named profile, so exports predating the
// device dimension stay byte-identical.
func (c *Cluster) DeviceLabels() map[string]string {
	out := map[string]string{}
	for _, n := range c.Nodes {
		if n.Profile.Name == "" {
			continue
		}
		out[fmt.Sprintf("n%d.host", n.ID)] = n.Profile.Name
		out[fmt.Sprintf("n%d.dpu", n.ID)] = n.Profile.Name
		if n.DSAEP != nil {
			out[fmt.Sprintf("n%d.dsa", n.ID)] = n.Profile.Name
		}
		for l := 0; l < c.Cfg.ProxiesPerDPU; l++ {
			out[fmt.Sprintf("proxy%d", n.ID*c.Cfg.ProxiesPerDPU+l)] = n.Profile.Name
		}
	}
	return out
}

// NewHostSite creates the attachment point for a host process on a node.
func (c *Cluster) NewHostSite(node int, name string) *Site {
	n := c.Nodes[node]
	sp := mem.NewSpaceIn(&c.bufs)
	return &Site{Node: n, Space: sp, Ctx: c.Reg.NewCtx(name, sp, n.HostEP)}
}

// NewDPUSite creates the attachment point for a proxy process on a node's
// BlueField.
func (c *Cluster) NewDPUSite(node int, name string) *Site {
	n := c.Nodes[node]
	sp := mem.NewSpaceIn(&c.bufs)
	return &Site{Node: n, Space: sp, Ctx: c.Reg.NewCtx(name, sp, n.DPUEP), OnDPU: true}
}

// NodeOfRank maps a host rank to its node under block distribution
// (ranks 0..PPN-1 on node 0, and so on), matching typical -ppn launches.
func (c *Cluster) NodeOfRank(rank int) int { return rank / c.Cfg.PPN }

// LocalRank returns the node-local index of a host rank.
func (c *Cluster) LocalRank(rank int) int { return rank % c.Cfg.PPN }

// ProxyOfRank maps a host rank to the node-local proxy index that serves it:
// proxy_local_rank = host_source_rank % num_proxies_per_dpu (Section VII-A).
func (c *Cluster) ProxyOfRank(rank int) int {
	return c.LocalRank(rank) % c.Cfg.ProxiesPerDPU
}

// SameNode reports whether two host ranks share a node.
func (c *Cluster) SameNode(a, b int) bool { return c.NodeOfRank(a) == c.NodeOfRank(b) }

// CopyCost returns the CPU time for one core to copy n bytes.
func (c *Cluster) CopyCost(n int) sim.Time {
	if c.Cfg.HostCopyGBps <= 0 {
		return 0
	}
	return sim.Time(float64(n) / c.Cfg.HostCopyGBps)
}
