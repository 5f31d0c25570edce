package core

import (
	"fmt"
	"sort"

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
	ten     *Tenancy
	q       [][]qpkt
	pass    []int64 // weighted-fair virtual time consumed per tenant
	scale   []int64 // passScale / weight, precomputed
	vtime   int64   // pass of the most recently served tenant
	nextSeq int64
	queued  int

	busy      []sim.Time // proxy CPU time attributed per tenant
	totalBusy sim.Time

	// Per-tenant metric handles (nil-inert when metrics are off).
	mDepth    []*metrics.Gauge
	mDepthMax []*metrics.Gauge
	mBusy     []*metrics.Counter
	mWait     []*metrics.Histogram
	mDispatch []*metrics.Counter
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
	n := len(t.Names)
	s := &tenantSched{
		ten:       t,
		q:         make([][]qpkt, n),
		pass:      make([]int64, n),
		scale:     make([]int64, n),
		busy:      make([]sim.Time, n),
		mDepth:    make([]*metrics.Gauge, n),
		mDepthMax: make([]*metrics.Gauge, n),
		mBusy:     make([]*metrics.Counter, n),
		mWait:     make([]*metrics.Histogram, n),
		mDispatch: make([]*metrics.Counter, n),
	}
	for i := 0; i < n; i++ {
		s.scale[i] = passScale / t.weight(i)
	}
	if m := px.fw.cl.Met; m.Enabled() {
		for i, name := range t.Names {
			s.mDepth[i] = m.GaugeT("core", px.entity, "tenant_queue_depth", name)
			s.mDepthMax[i] = m.GaugeT("core", px.entity, "tenant_queue_depth_max", name)
			s.mBusy[i] = m.CounterT("core", px.entity, "tenant_busy_ns", name)
			s.mWait[i] = m.HistogramT("core", px.entity, "cross_tenant_wait_ns", name)
			s.mDispatch[i] = m.CounterT("core", px.entity, "tenant_dispatches", name)
		}
	}
	px.sched = s
}

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
	t := s.tenantOf(pkt)
	if len(s.q[t]) == 0 && s.pass[t] < s.vtime {
		s.pass[t] = s.vtime
	}
	s.q[t] = append(s.q[t], qpkt{pkt: pkt, seq: s.nextSeq, othersBusy: s.totalBusy - s.busy[t]})
	s.nextSeq++
	s.queued++
	d := float64(len(s.q[t]))
	s.mDepth[t].Set(d)
	s.mDepthMax[t].SetMax(d)
}

// pick chooses the next tenant to serve: lowest pass under fair scheduling
// (ties to the lower tenant index), global arrival order under FIFO.
func (s *tenantSched) pick() (int, qpkt) {
	best := -1
	if s.ten.FIFO {
		var bestSeq int64
		for t := range s.q {
			if len(s.q[t]) == 0 {
				continue
			}
			if best < 0 || s.q[t][0].seq < bestSeq {
				best, bestSeq = t, s.q[t][0].seq
			}
		}
	} else {
		for t := range s.q {
			if len(s.q[t]) == 0 {
				continue
			}
			if best < 0 || s.pass[t] < s.pass[best] {
				best = t
			}
		}
	}
	// Pop by copying down, as popHead does: the queue keeps its storage, so
	// the next enqueue appends without reallocating.
	q := s.q[best]
	qp := q[0]
	n := copy(q, q[1:])
	q[n] = qpkt{}
	s.q[best] = q[:n]
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
	s.busy[t] += d
	s.totalBusy += d
	s.charge(t, d)
	s.mBusy[t].Add(int64(d))
}

// charge advances tenant t's weighted-fair pass by d of consumed service
// without booking proxy CPU time.
func (s *tenantSched) charge(t int, d sim.Time) {
	if d <= 0 {
		return
	}
	s.pass[t] += int64(d) * s.scale[t]
}

// wireCharge bills tenant t's pass for the DPU-port serialization time of a
// posted RDMA of the given size. Posting is nearly free in ARM cycles, so
// CPU attribution alone cannot differentiate tenants — the service a
// tenant's posts actually claim is port bandwidth, and that is what group
// arbitration must ration.
func (px *Proxy) wireCharge(t, size int) {
	px.sched.charge(t, px.fw.cl.Cfg.DPUPort.XferTime(size))
}

// tenantGroupRound advances active group schedules with per-tenant
// arbitration. Under FIFO every group advances once in install order (the
// no-isolation baseline). Under weighted fair scheduling each grant is a
// single group advancement given to the tenant with the least consumed
// weighted pass; the pass grows by the wire time of whatever the grant
// posted (over the tenant's weight), and the order re-evaluates after
// every grant. The quantum matters: when several tenants hold postable
// work at the same virtual instant, per-grant re-sorting is what
// interleaves their RDMA onto the shared port in weight proportion —
// coarser grants would let install order decide the wire order. A tenant
// whose groups cannot progress (waiting on remote deliveries) falls
// through to the next, so arbitration never blocks the engine.
func (px *Proxy) tenantGroupRound() bool {
	s := px.sched
	if s.ten.FIFO {
		progressed := false
		for _, g := range px.groupList {
			if !g.active() {
				continue
			}
			t := s.ten.TenantOf[g.host]
			t0 := px.proc.Now()
			adv := px.advanceGroup(g)
			s.addBusy(t, px.proc.Now()-t0)
			if adv {
				progressed = true
			}
		}
		return progressed
	}
	progressed := false
	for {
		var tenants []int
		seen := make(map[int]bool)
		for _, g := range px.groupList {
			if t := s.ten.TenantOf[g.host]; g.active() && !seen[t] {
				seen[t] = true
				tenants = append(tenants, t)
			}
		}
		sort.SliceStable(tenants, func(a, b int) bool { return s.pass[tenants[a]] < s.pass[tenants[b]] })
		served := false
	grant:
		for _, t := range tenants {
			for _, g := range px.groupList {
				if !g.active() || s.ten.TenantOf[g.host] != t {
					continue
				}
				t0 := px.proc.Now()
				adv := px.advanceGroup(g)
				s.addBusy(t, px.proc.Now()-t0)
				if adv {
					served = true
					break grant // one grant, then re-evaluate pass order
				}
			}
		}
		if !served {
			return progressed
		}
		progressed = true
	}
}

// tenantRound is the tenant-mode control loop body: poll arrivals into the
// per-tenant queues, then dispatch until the queues drain, re-polling after
// every dispatch so packets arriving while a handler advanced virtual time
// enter the arbitration immediately. Reports whether anything happened.
func (px *Proxy) tenantRound() bool {
	s := px.sched
	progressed := false
	poll := func() {
		for _, pkt := range px.ctx.PollInbox() {
			s.enqueue(pkt)
			progressed = true
		}
	}
	poll()
	for s.queued > 0 {
		t, qp := s.pick()
		if !s.ten.FIFO {
			s.vtime = s.pass[t]
		}
		// Head-of-line delay: how much proxy time went to other tenants
		// while this packet sat queued.
		s.mWait[t].Observe((s.totalBusy - s.busy[t]) - qp.othersBusy)
		s.mDispatch[t].Inc()
		t0 := px.proc.Now()
		px.handle(qp.pkt)
		s.addBusy(t, px.proc.Now()-t0)
		s.mDepth[t].Set(float64(len(s.q[t])))
		progressed = true
		poll()
	}
	return progressed
}
