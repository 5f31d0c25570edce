package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Tenancy attributes a shared framework's host ranks to tenant jobs and
// configures how the proxies arbitrate between them. The paper evaluates
// one job at a time; a production DPU serves many, and whether offload
// still pays off depends on how loaded the shared ARM cores are — which is
// only observable with per-tenant attribution.
//
// Install it with Framework.SetTenancy before Start. Without a tenancy the
// proxy engine is byte-identical to the single-job framework (the pinned
// fig13 timings enforce this); with one, every proxy routes its control
// inbox through per-tenant work queues drained by weighted fair scheduling
// (stride scheduling over integer passes — deterministic, no floats) or, as
// a fallback, in global arrival order (FIFO).
type Tenancy struct {
	// TenantOf maps each global host rank to its tenant index.
	TenantOf []int
	// Names labels tenants in metrics and spans (one per tenant).
	Names []string
	// Weights are the fair-share weights (missing or non-positive = 1).
	// A tenant with weight 2 gets two proxy dispatches for every one a
	// weight-1 tenant gets, when both have work queued.
	Weights []int
	// FIFO disables fair scheduling: dispatch in global arrival order.
	// This is the no-isolation baseline that exhibits head-of-line
	// blocking — bulk tenants starve latency-bound ones.
	FIFO bool
}

// weight returns tenant t's effective weight.
func (t *Tenancy) weight(i int) int64 {
	if i < len(t.Weights) && t.Weights[i] > 0 {
		return int64(t.Weights[i])
	}
	return 1
}

// SetTenancy installs (or, with nil, removes) multi-tenant attribution.
// Call before Start; the per-proxy scheduler state and metric handles are
// built here so the dispatch path never pays a registry lookup.
func (fw *Framework) SetTenancy(t *Tenancy) {
	if t != nil {
		if len(t.TenantOf) != fw.cl.Cfg.NP() {
			panic(fmt.Sprintf("core: tenancy maps %d ranks, cluster has %d", len(t.TenantOf), fw.cl.Cfg.NP()))
		}
		for r, ti := range t.TenantOf {
			if ti < 0 || ti >= len(t.Names) {
				panic(fmt.Sprintf("core: rank %d assigned to tenant %d of %d", r, ti, len(t.Names)))
			}
		}
	}
	fw.tenancy = t
	for _, px := range fw.proxies {
		px.initTenancy(t)
	}
}

// Tenancy returns the installed tenancy (nil = single-job framework).
func (fw *Framework) Tenancy() *Tenancy { return fw.tenancy }

// tenantName returns the metric/span label of the tenant owning a global
// host rank ("" when untenanted).
func (fw *Framework) tenantName(rank int) string {
	if fw.tenancy == nil {
		return ""
	}
	return fw.tenancy.Names[fw.tenancy.TenantOf[rank]]
}

// passScale is the fair scheduler's virtual-time resolution: serving a
// tenant for d nanoseconds of proxy CPU advances its pass by
// d*passScale/weight, so heavier tenants accumulate pass more slowly and
// stay eligible for proportionally more service (weighted fair queueing
// over attributed busy time, in integers — no float nondeterminism).
const passScale = 1 << 10

// qpkt is one queued control packet awaiting tenant-fair dispatch.
type qpkt struct {
	pkt *verbs.Packet
	seq int64 // global arrival order (FIFO key)
	// othersBusy snapshots the busy time attributed to *other* tenants at
	// enqueue; its growth until dispatch is the cross-tenant head-of-line
	// delay this packet suffered.
	othersBusy sim.Time
}

// tenantSched is one proxy's per-tenant queueing and attribution state.
type tenantSched struct {
	ten       *Tenancy
	ts        []tenantState
	vtime     int64 // pass of the most recently served tenant
	nextSeq   int64
	queued    int
	totalBusy sim.Time
}

// tenantState is one tenant's share of a proxy.
type tenantState struct {
	q     []qpkt
	pass  int64    // weighted-fair virtual time consumed
	scale int64    // passScale / weight, precomputed
	busy  sim.Time // proxy CPU time attributed
	first int      // where its first group stands in a fair order being drawn

	// Metric handles (nil-inert when metrics are off).
	mDepth    *metrics.Gauge
	mDepthMax *metrics.Gauge
	mBusy     *metrics.Counter
	mWait     *metrics.Histogram
	mDispatch *metrics.Counter
}

// initTenancy (re)builds the proxy's scheduler state for a tenancy (nil
// clears it). Also invoked on crash recovery: queued packets died with the
// process, but busy attribution and passes survive in the accounting sense
// only through the metrics already exported — the scheduler itself restarts
// fresh, like every other piece of proxy state.
func (px *Proxy) initTenancy(t *Tenancy) {
	if t == nil {
		px.sched = nil
		return
	}
	s := &tenantSched{ten: t, ts: make([]tenantState, len(t.Names))}
	m := px.fw.cl.Met
	for i, name := range t.Names {
		ts := &s.ts[i]
		ts.scale = passScale / t.weight(i)
		if m.Enabled() {
			ts.mDepth = m.GaugeT("core", px.entity, "tenant_queue_depth", name)
			ts.mDepthMax = m.GaugeT("core", px.entity, "tenant_queue_depth_max", name)
			ts.mBusy = m.CounterT("core", px.entity, "tenant_busy_ns", name)
			ts.mWait = m.HistogramT("core", px.entity, "cross_tenant_wait_ns", name)
			ts.mDispatch = m.CounterT("core", px.entity, "tenant_dispatches", name)
		}
	}
	px.sched = s
}

// of returns the share of the tenant of host rank.
func (s *tenantSched) of(host int) *tenantState { return &s.ts[s.ten.TenantOf[host]] }

// tenantOf attributes one control packet to a tenant: RTS/RTR traffic to
// the sending host's tenant (both land on the sender's proxy), group wires
// and replays to the issuing host, delivery notifications to the receiving
// group's owner, one-sided work to the initiator.
func (s *tenantSched) tenantOf(pkt *verbs.Packet) int {
	switch m := pkt.Payload.(type) {
	case *rtsMsg:
		return s.ten.TenantOf[m.Src]
	case *rtrMsg:
		return s.ten.TenantOf[m.Src]
	case *groupPacket:
		return s.ten.TenantOf[m.HostRank]
	case *greplayMsg:
		return s.ten.TenantOf[m.HostRank]
	case *dlvMsg:
		return s.ten.TenantOf[m.DstHost]
	case *oneSidedMsg:
		return s.ten.TenantOf[m.Initiator]
	default:
		return 0
	}
}

// enqueue files one arrived packet into its tenant's queue. A tenant waking
// from idle has its pass pulled up to the scheduler's current virtual time,
// so sleeping never banks credit (the standard stride-scheduler fix).
func (s *tenantSched) enqueue(pkt *verbs.Packet) {
	ts := &s.ts[s.tenantOf(pkt)]
	if len(ts.q) == 0 && ts.pass < s.vtime {
		ts.pass = s.vtime
	}
	ts.q = append(ts.q, qpkt{pkt: pkt, seq: s.nextSeq, othersBusy: s.totalBusy - ts.busy})
	s.nextSeq++
	s.queued++
	d := float64(len(ts.q))
	ts.mDepth.Set(d)
	ts.mDepthMax.SetMax(d)
}

// pick chooses the next tenant to serve: lowest pass under fair scheduling
// (ties to the lower tenant index), global arrival order under FIFO.
func (s *tenantSched) pick() (int, qpkt) {
	best := -1
	for t := range s.ts {
		q := s.ts[t].q
		switch {
		case len(q) == 0:
		case best < 0,
			s.ten.FIFO && q[0].seq < s.ts[best].q[0].seq,
			!s.ten.FIFO && s.ts[t].pass < s.ts[best].pass:
			best = t
		}
	}
	// Pop by copying down, as popHead does: the queue keeps its storage, so
	// the next enqueue appends without reallocating.
	ts := &s.ts[best]
	qp := ts.q[0]
	n := copy(ts.q, ts.q[1:])
	ts.q[n] = qpkt{}
	ts.q = ts.q[:n]
	s.queued--
	return best, qp
}

// addBusy attributes d of proxy CPU time to tenant t and advances its
// weighted-fair pass — service consumed is what fairness is measured in,
// so the pass tracks actual attributed time, not dispatch counts.
func (s *tenantSched) addBusy(t int, d sim.Time) {
	if d <= 0 {
		return
	}
	ts := &s.ts[t]
	ts.busy += d
	s.totalBusy += d
	s.charge(t, d)
	ts.mBusy.Add(int64(d))
}

// charge advances tenant t's weighted-fair pass by d of consumed service
// without booking proxy CPU time.
func (s *tenantSched) charge(t int, d sim.Time) {
	if d <= 0 {
		return
	}
	s.ts[t].pass += int64(d) * s.ts[t].scale
}

// wireCharge bills tenant t's pass for the DPU-port serialization time of a
// posted RDMA of the given size. Posting is nearly free in ARM cycles, so
// CPU attribution alone cannot differentiate tenants — the service a
// tenant's posts actually claim is port bandwidth, and that is what group
// arbitration must ration.
func (px *Proxy) wireCharge(t, size int) {
	px.sched.charge(t, px.fw.cl.Cfg.DPUPort.XferTime(size))
}
