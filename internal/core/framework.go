// Package core implements the paper's contribution: a framework that
// offloads arbitrary communication patterns from host processes to
// BlueField DPU worker ("proxy") processes.
//
// It provides the two API families of Section VI:
//
//   - Basic primitives — Send_Offload / Recv_Offload / Wait — nonblocking
//     point-to-point transfers performed by a proxy on the DPU
//     (Host.SendOffload, Host.RecvOffload, Host.Wait);
//   - Group primitives — Group_Offload_start/end/call, Send/Recv_Goffload,
//     Local_barrier_Goffload, Group_Wait — which record an entire
//     communication pattern, including ordering dependencies, and hand the
//     whole graph to the DPU in one shot (Host.GroupStart, GroupRequest).
//
// Two data-movement mechanisms implement the primitives (Section VII); the
// framework's default is one of these two datapath kinds:
//
//   - datapath.KindCrossGVMI: the proxy cross-registers host buffers
//     through cross-GVMI and RDMA-writes directly from source host memory
//     to destination host memory — no staging;
//   - datapath.KindStaged: the state-of-the-art baseline path
//     (BluesMPI-style): data is first moved into DPU memory, then
//     re-injected toward the destination — one extra hop (Figure 6).
//
// The registration caches of Section VII-B and the group-request caches of
// Section VII-D are individually switchable for ablation studies.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/gvmi"
	"repro/internal/pool"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Config tunes the framework.
type Config struct {
	// Path is how proxies move host data unless a call picks a path of its
	// own: KindCrossGVMI (the proposed design) or KindStaged (the baseline
	// mechanism). Host-direct and DSA are per-call degradations, not
	// framework defaults.
	Path datapath.Kind
	// RegCaches enables the GVMI / cross-registration / IB registration
	// caches (Section VII-B). Off = register on every transfer.
	RegCaches bool
	// GroupCache enables the group-request caches on host and DPU
	// (Section VII-D): a replayed group request sends only its ID.
	GroupCache bool
	// WarmupPerOp is a per-entry setup penalty the proxy pays during the
	// first WarmupCalls executions of each group request; it models the
	// first-several-iterations degradation the paper observed in BluesMPI
	// at the application level (Section VIII-D, Figure 16). Zero for the
	// proposed design.
	WarmupPerOp sim.Time
	// WarmupCalls is how many calls of each request pay WarmupPerOp.
	WarmupCalls int
}

// DefaultConfig returns the proposed design: GVMI mechanism, all caches on.
func DefaultConfig() Config {
	return Config{
		Path:       datapath.KindCrossGVMI,
		RegCaches:  true,
		GroupCache: true,
	}
}

// The control plane's wire and CPU costs, the same on every system.
const (
	ctrlSize        = 48                   // wire size of a bare control message (RTS/RTR/FIN)
	groupOpWireSize = 64                   // per-entry wire size of a Group_Offload_packet
	proxyHandleCost = 120 * sim.Nanosecond // DPU CPU cost of parsing one control message
)

// Framework ties hosts and proxies together. Create it with New, then call
// Start before launching host processes.
type Framework struct {
	cl      *cluster.Cluster
	cfg     Config
	hosts   []*Host
	proxies []*Proxy
	stopped bool
	crashed bool     // some proxy has crashed: hosts run the failure detector
	tenancy *Tenancy // nil = single-job framework (see tenancy.go)

	// reqFree recycles the hosts' request records (see reqRec), offReqFree
	// the handles Wait and WaitAll release (see OffloadRequest), xferFree the
	// proxies' records of matched pairs in flight (see xfer), and stages
	// holds the records of the proxies' staging leases (see AcquireStage).
	reqFree    pool.List[reqRec]
	offReqFree pool.List[OffloadRequest]
	xferFree   pool.List[xfer]
	stages     pool.Slab[datapath.Stage]

	// Free lists of control payloads (see ctrlPacket); their packets come
	// from the verbs registry's pool.
	dlvFree     pool.List[dlvMsg]
	rtsFree     pool.List[rtsMsg]
	rtrFree     pool.List[rtrMsg]
	finFree     pool.List[finMsg]
	gmetaFree   pool.List[gmetaMsg]
	greplayFree pool.List[greplayMsg]
	gdoneFree   pool.List[gdoneMsg]
	gfailFree   pool.List[gfailMsg]
}

// New builds the framework for the given host attachment sites (one per
// rank; typically mpi.Rank sites so that application buffers are shared).
func New(cl *cluster.Cluster, cfg Config, sites []*cluster.Site) *Framework {
	if len(sites) != cl.Cfg.NP() {
		panic(fmt.Sprintf("core: %d sites for %d ranks", len(sites), cl.Cfg.NP()))
	}
	if cfg.Path != datapath.KindCrossGVMI && cfg.Path != datapath.KindStaged {
		panic(fmt.Sprintf("core: default path %v is not a framework default (gvmi or staged)", cfg.Path))
	}
	fw := &Framework{cl: cl, cfg: cfg}
	nProxies := cl.Cfg.Nodes * cl.Cfg.ProxiesPerDPU
	for i := 0; i < nProxies; i++ {
		node := i / cl.Cfg.ProxiesPerDPU
		local := i % cl.Cfg.ProxiesPerDPU
		site := cl.NewDPUSite(node, fmt.Sprintf("proxy%d.%d", node, local))
		fw.proxies = append(fw.proxies, newProxy(fw, i, node, local, site))
	}
	np := cl.Cfg.NP()
	for r := 0; r < np; r++ {
		h := &Host{
			fw:     fw,
			rank:   r,
			entity: fmt.Sprintf("rank%d", r),
			site:   sites[r],
			ctx:    sites[r].NewCtx(fmt.Sprintf("offload%d", r)),
			reqs:   make(map[int64]*reqRec),
		}
		h.gvmiCache = regcache.New[gvmi.MKeyInfo](1, 0, nil)
		h.ibCache = regcache.New[*verbs.MR](1, 0, nil)
		h.gvmiCache.Instrument(cl.Met, fmt.Sprintf("gvmi.rank%d", r))
		h.ibCache.Instrument(cl.Met, fmt.Sprintf("ib.rank%d", r))
		// The host's delivery counters are written where they are read
		// (Section VII-C): by its proxy, which pays proxyHandleCost per
		// notification. A crash plan moves the writes into host memory, so
		// they survive the proxy.
		h.dlvEP = fw.proxyFor(r).ctx
		if f := cl.Cfg.Fault; f != nil && len(f.Crashes) > 0 {
			h.dlvEP = sites[r].NewCtx(fmt.Sprintf("dlvctr%d", r))
		}
		fw.hosts = append(fw.hosts, h)
	}
	return fw
}

// ctrlPacket returns a control packet carrying pay. Packet and payload
// come from free lists that their consumer refills, like the verbs flight
// records: whoever counts a delivery notification (the proxy, or under a
// crash plan the host's counter handler) and the proxy's group replays, the
// RTS/RTR packets as it queues their payloads, and a matched pair's payloads
// once its FINs are out; the host recycles FINs and group completions and
// failures, and gathered metadata once the send it matched has copied it.
// Fault plans change nothing here: verbs
// re-sends only a packet that was not delivered, so each reaches at most one
// inbox, at most once, and its consumer is its last holder. A packet that
// never arrives — retries exhausted, polled away by a crashed proxy, or a
// dead proxy's dropped FIN — is simply never recycled.
func (fw *Framework) ctrlPacket(kind string, size int, pay any, parent span.ID) *verbs.Packet {
	pkt := fw.cl.Reg.GetPacket()
	pkt.Kind, pkt.Size, pkt.Payload, pkt.Span = kind, size, pay, parent
	return pkt
}

// recycle zeroes m and returns it to l; the caller must be its last holder.
func recycle[T any](l *pool.List[T], m *T) {
	var zero T
	*m = zero
	l.Put(m)
}

// dlvPacket returns the control packet carrying delivery notification m.
func (fw *Framework) dlvPacket(m dlvMsg, parent span.ID) *verbs.Packet {
	pay := fw.dlvFree.Get()
	*pay = m
	return fw.ctrlPacket("dlv", ctrlSize, pay, parent)
}

// hbTimeout returns the heartbeat timeout after which a silent proxy is
// declared dead.
func (fw *Framework) hbTimeout() sim.Time {
	if f := fw.cl.Cfg.Fault; f != nil && f.HeartbeatTimeout > 0 {
		return f.HeartbeatTimeout
	}
	return fault.DefaultConfig(0).HeartbeatTimeout
}

// DefaultPath is the construction-time datapath — the path every operation
// takes unless the caller picks one per call (SendOffloadVia /
// GroupStartVia, normally driven by a policy engine).
func (fw *Framework) DefaultPath() datapath.Kind { return fw.cfg.Path }

// Cluster returns the underlying cluster.
func (fw *Framework) Cluster() *cluster.Cluster { return fw.cl }

// ProfileOfRank returns the device profile of the node hosting rank.
func (fw *Framework) ProfileOfRank(rank int) device.Profile {
	return fw.cl.ProfileOf(fw.cl.NodeOfRank(rank))
}

// CapsOfRank returns the datapath capability set of the node hosting rank.
// Every rank that knows the sender's node can compute this, which is what
// keeps capability fallbacks consistent across a pair or a group.
func (fw *Framework) CapsOfRank(rank int) datapath.Caps {
	p := fw.ProfileOfRank(rank)
	return datapath.Caps{CrossGVMI: p.CrossGVMI, DSA: p.HasDSA}
}

// Config returns the framework configuration.
func (fw *Framework) Config() Config { return fw.cfg }

// Host returns the handle for a host rank. The handle must be bound to its
// simulated process (Bind) before use.
func (fw *Framework) Host(rank int) *Host { return fw.hosts[rank] }

// Proxy returns proxy i (for inspection in tests).
func (fw *Framework) Proxy(i int) *Proxy { return fw.proxies[i] }

// proxyFor returns the proxy serving a host rank:
// proxy_local_rank = host_source_rank % num_proxies_per_dpu, on the rank's
// own node (Section VII-A).
func (fw *Framework) proxyFor(rank int) *Proxy {
	node := fw.cl.NodeOfRank(rank)
	return fw.proxies[node*fw.cl.Cfg.ProxiesPerDPU+fw.cl.ProxyOfRank(rank)]
}

// Stop ends the proxies' service (Finalize_Offload): an engine finishes the
// round it is in, and one that is idle does nothing more, whatever arrives.
// The proxies are event handlers with no stack, so there is nothing to
// unwind.
func (fw *Framework) Stop() { fw.stopped = true }

// Retire ends a finished (or deadlocked) run: it stops the proxies and shuts
// the kernel down, so whatever is still parked on it — deadlocked ranks
// included — is released. Call it from outside the simulation; the cluster
// is dead afterwards.
func (fw *Framework) Retire() {
	fw.Stop()
	fw.cl.K.Shutdown()
}

// Start starts the proxies' progress engines and performs the Init_Offload
// setup: every proxy generates its GVMI-ID, which is exchanged with all
// processes in the global communicator (modelled as part of initialization,
// before timing starts).
func (fw *Framework) Start() {
	for _, px := range fw.proxies {
		px.gvmiID = fw.cl.GVMI.GenerateID(px.ctx)
		px.start()
	}
	// Schedule the fault plan's proxy crashes/restarts at their virtual
	// times (Start runs at t=0, before the kernel).
	if f := fw.cl.Cfg.Fault; f != nil {
		for _, cr := range f.Crashes {
			if cr.Proxy < 0 || cr.Proxy >= len(fw.proxies) {
				panic(fmt.Sprintf("core: crash plan references proxy %d of %d", cr.Proxy, len(fw.proxies)))
			}
			px := fw.proxies[cr.Proxy]
			fw.cl.K.At(cr.At, func() { px.crash() })
			if cr.RestartAfter > 0 {
				fw.cl.K.At(cr.At+cr.RestartAfter, func() { px.restart() })
			}
		}
	}
	// A host whose counters are written into its own memory has a counter
	// handler: it models the destination HCA updating them.
	for _, h := range fw.hosts {
		if h.dlvEP != fw.proxyFor(h.rank).ctx {
			fw.cl.K.AtAction(0, (*dlvCounter)(h))
		}
	}
}

// dlvCounter is the counter handler of a host whose delivery counters are
// in its own memory: at no CPU cost, it accounts the notifications that
// arrived and wakes the readers (the host's own wait loops and its proxy's
// progress engine), then parks until the next arrival.
type dlvCounter Host

func (c *dlvCounter) Fire(sim.Time) {
	h := (*Host)(c)
	fw := h.fw
	if fw.stopped {
		return
	}
	for _, pkt := range h.dlvEP.PollInbox() {
		if h.countDelivery(pkt) {
			h.ctx.InboxCond.Broadcast()
			fw.proxyFor(h.rank).ctx.InboxCond.Broadcast()
		}
	}
	h.dlvEP.InboxCond.Park(fw.cl.K, c)
}
