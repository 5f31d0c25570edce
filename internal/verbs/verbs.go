// Package verbs models an InfiniBand-verbs-like NIC interface for the
// simulated cluster: protection-domain contexts, memory-region registration
// with lkey/rkey generation and a page-granular cost model, one-sided RDMA
// write/read, and two-sided control-message send/receive.
//
// Data really moves: RDMA operations copy bytes between simulated address
// spaces when buffers are payload-backed, so end-to-end integrity is
// testable. All CPU-side costs (registration, posting a work request) are
// charged to the posting process; wire costs are charged to the fabric
// endpoints.
package verbs

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/span"
)

// Key is an lkey/rkey handle returned by registration.
type Key uint32

// CostConfig models the CPU costs of verbs operations.
type CostConfig struct {
	RegBase    sim.Time // fixed cost of ibv_reg_mr
	RegPerPage sim.Time // additional cost per pinned page
	PageSize   int
	PostWR     sim.Time // CPU cost to post one work request
	RDMAHdr    int      // wire header bytes added to each RDMA op
	ReadReqLen int      // wire size of an RDMA-read request
}

// DefaultCosts returns costs loosely calibrated to ConnectX-6-class
// hardware: ~2us base registration plus ~0.25us/page, ~80ns per posted WR.
func DefaultCosts() CostConfig {
	return CostConfig{
		RegBase:    2 * sim.Microsecond,
		RegPerPage: 250 * sim.Nanosecond,
		PageSize:   4096,
		PostWR:     80 * sim.Nanosecond,
		RDMAHdr:    30,
		ReadReqLen: 30,
	}
}

// RegCost returns the registration cost for a region of size bytes.
func (c CostConfig) RegCost(size int) sim.Time {
	pages := (size + c.PageSize - 1) / c.PageSize
	if pages < 1 {
		pages = 1
	}
	return c.RegBase + sim.Time(pages)*c.RegPerPage
}

// Registry is the cluster-wide key table (stands in for the HCA's MTT/MPT).
type Registry struct {
	f     *fabric.Fabric
	costs CostConfig
	// mrs is the key table, dense: registration i (from 0) holds lkey
	// firstKey+2i and rkey lkey+1, and both resolve through slot i. A
	// deregistered slot is nil and its keys are never handed out again. It
	// grows by pool.Append: two registrations per (rank, peer) pair of an
	// offloaded alltoall.
	mrs []*MR
	inj *fault.Injector // nil = no fault injection
	sp  *span.Collector // nil = no span tracing

	// The pooled flight records and packets (see pool.go), the OnError
	// handlers of the flights that have one, and the slab the key table's
	// regions come from.
	wf     pool.List[writeFlight]
	rf     pool.List[readFlight]
	sf     pool.List[sendFlight]
	pk     pool.List[Packet]
	onErr  map[flight]sim.Action
	mrSlab pool.Slab[MR]

	// Stats
	Registrations int64
	RegTime       sim.Time

	// Metric handles; nil (inert) when no metrics registry is attached.
	mRetries    *metrics.Counter
	mBackoffNS  *metrics.Counter
	mErrorCQEs  *metrics.Counter
	mRegLatency *metrics.Histogram
}

// firstKey is the lkey of the first registration; smaller keys never
// resolve.
const firstKey Key = 102

// NewRegistry creates the key table for one simulation.
func NewRegistry(f *fabric.Fabric, costs CostConfig) *Registry {
	return &Registry{f: f, costs: costs, onErr: make(map[flight]sim.Action)}
}

// Costs returns the registry's cost configuration.
func (r *Registry) Costs() CostConfig { return r.costs }

// SetInjector attaches a fault injector: posted operations then draw error
// CQEs and fabric fates, and failed attempts are retransmitted with
// exponential backoff up to the injector's retry budget. Nil (the default)
// draws nothing; either way every op rides the same pooled flight (pool.go),
// and a plan that injects nothing times and allocates exactly like none.
func (r *Registry) SetInjector(inj *fault.Injector) { r.inj = inj }

// SetMetrics attaches a metrics registry; nil disables metrics. Like the
// fault injector, metrics never consume virtual time.
func (r *Registry) SetMetrics(m *metrics.Registry) {
	if !m.Enabled() {
		r.mRetries, r.mBackoffNS, r.mErrorCQEs, r.mRegLatency = nil, nil, nil, nil
		return
	}
	r.mRetries = m.Counter("verbs", "all", "retries")
	r.mBackoffNS = m.Counter("verbs", "all", "backoff_ns")
	r.mErrorCQEs = m.Counter("verbs", "all", "error_cqes")
	r.mRegLatency = m.Histogram("verbs", "all", "reg_latency_ns")
}

// SetSpans attaches a span collector; nil disables tracing. Registration
// and RDMA operations posted with a parent span (the *Ctx variants, or the
// Span field on WriteOp/ReadOp/Packet) then record verbs-layer spans
// parenting the fabric flights they cause. Span collection never consumes
// virtual time.
func (r *Registry) SetSpans(c *span.Collector) { r.sp = c }

// Ctx is a per-process verbs context: the process's protection domain,
// address space, and the endpoint its work requests are injected through.
type Ctx struct {
	reg   *Registry
	name  string
	space *mem.Space
	ep    *fabric.Endpoint

	inbox     []*Packet
	inboxAlt  []*Packet // drained buffer, swapped back in by PollInbox
	InboxCond sim.Cond
}

// NewCtx opens a verbs context for a process whose memory is space and whose
// NIC port is ep.
func (r *Registry) NewCtx(name string, space *mem.Space, ep *fabric.Endpoint) *Ctx {
	return &Ctx{reg: r, name: name, space: space, ep: ep}
}

// Name returns the context's diagnostic name.
func (c *Ctx) Name() string { return c.name }

// Space returns the context's address space.
func (c *Ctx) Space() *mem.Space { return c.space }

// Endpoint returns the context's fabric port.
func (c *Ctx) Endpoint() *fabric.Endpoint { return c.ep }

// Registry returns the owning registry.
func (c *Ctx) Registry() *Registry { return c.reg }

// MR is a registered memory region.
type MR struct {
	ctx   *Ctx // protection domain owner (whose endpoint posts with lkey)
	space *mem.Space
	addr  mem.Addr
	size  int
	lkey  Key
	rkey  Key
}

// Addr returns the region's base address.
func (m *MR) Addr() mem.Addr { return m.addr }

// Size returns the region's length.
func (m *MR) Size() int { return m.size }

// LKey returns the local access key.
func (m *MR) LKey() Key { return m.lkey }

// RKey returns the remote access key.
func (m *MR) RKey() Key { return m.rkey }

var (
	// ErrBadKey is returned when a key does not resolve to a region.
	ErrBadKey = errors.New("verbs: unknown key")
	// ErrOutOfRange is returned when an access exceeds a region's bounds.
	ErrOutOfRange = errors.New("verbs: access outside registered region")
)

// RegisterMR pins [addr, addr+size) in c's space, charging the registration
// cost to p. It corresponds to ibv_reg_mr. Under fault injection a
// registration attempt may fail (pinning pressure); each failed attempt
// pays the full cost and is retried until it succeeds.
func (c *Ctx) RegisterMR(p *sim.Proc, addr mem.Addr, size int) *MR {
	return c.RegisterMRCtx(p, addr, size, 0)
}

// RegisterMRCtx is RegisterMR carrying span context: when a collector is
// attached, the registration (including failed fault-injected attempts) is
// recorded as a "reg_mr" span under parent. Timing is identical to
// RegisterMR. It is StartReg, then, until an attempt succeeds, Attempt and p
// paying its cost before Finish.
func (c *Ctx) RegisterMRCtx(p *sim.Proc, addr mem.Addr, size int, parent span.ID) *MR {
	r := c.StartReg(addr, size, parent)
	for {
		p.AdvanceBusy(r.Attempt())
		if mr := r.Finish(); mr != nil {
			return mr
		}
	}
}

// Reg is a memory registration in progress, for a registrant that is not a
// process: StartReg opens it, each Attempt draws whether the try fails and
// returns its cost, and Finish, once that cost is paid, ends the try — nil
// after a failed one, which the registrant retries with another Attempt.
type Reg struct {
	c      *Ctx
	addr   mem.Addr
	size   int
	start  sim.Time
	sp     span.ID
	failed bool
}

// StartReg opens the registration of [addr, addr+size), recorded under
// parent.
func (c *Ctx) StartReg(addr mem.Addr, size int, parent span.ID) Reg {
	r := Reg{c: c, addr: addr, size: size, start: c.reg.f.Kernel().Now()}
	if c.reg.sp.Enabled() {
		r.sp = c.reg.sp.StartAt(parent, span.ClassHCA, c.name, "verbs", "reg_mr", r.start)
		c.reg.sp.AttrInt(r.sp, "size", int64(size))
	}
	return r
}

// Attempt begins one try and returns the CPU time it costs.
func (r *Reg) Attempt() sim.Time {
	reg := r.c.reg
	r.failed = reg.inj.RegFail()
	cost := reg.costs.RegCost(r.size)
	reg.Registrations++
	reg.RegTime += cost
	return cost
}

// Finish ends the try whose cost has been paid: nil if it failed (pinning
// pressure), the registered region otherwise.
func (r *Reg) Finish() *MR {
	c := r.c
	now := c.reg.f.Kernel().Now()
	if r.failed {
		if c.reg.inj.Tracing() {
			c.reg.inj.Note(now, span.ClassHCA, c.name, "reg-fail",
				fmt.Sprintf("addr=%d size=%d (retrying)", r.addr, r.size))
		}
		return nil
	}
	c.reg.mRegLatency.Observe(now - r.start)
	c.reg.sp.EndAt(r.sp, now)
	return c.reg.insertMR(c, c.space, r.addr, r.size)
}

// insertMR adds a region to the key table without charging time (used by
// RegisterMR and by gvmi cross-registration, which has its own cost model).
func (r *Registry) insertMR(ctx *Ctx, space *mem.Space, addr mem.Addr, size int) *MR {
	lkey := firstKey + 2*Key(len(r.mrs))
	mr := r.mrSlab.New()
	*mr = MR{ctx: ctx, space: space, addr: addr, size: size, lkey: lkey, rkey: lkey + 1}
	r.mrs = pool.Append(r.mrs, mr)
	return mr
}

// InsertForeignMR registers a region owned by ctx but backed by another
// process's space. This is the primitive cross-GVMI builds on: the returned
// MR acts as an lkey for ctx while sourcing data from space.
func (r *Registry) InsertForeignMR(ctx *Ctx, space *mem.Space, addr mem.Addr, size int) *MR {
	return r.insertMR(ctx, space, addr, size)
}

// Deregister removes the region from the key table (ibv_dereg_mr).
func (m *MR) Deregister() {
	m.ctx.reg.mrs[(m.lkey-firstKey)/2] = nil
}

// lookupKey resolves a key and validates the access range.
func (r *Registry) lookupKey(key Key, addr mem.Addr, size int) (*MR, error) {
	var mr *MR
	if slot := int(key-firstKey) / 2; key >= firstKey && slot < len(r.mrs) {
		mr = r.mrs[slot]
	}
	if mr == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadKey, key)
	}
	if addr < mr.addr || int(addr-mr.addr)+size > mr.size {
		return nil, fmt.Errorf("%w: [%d,+%d) not in [%d,+%d)", ErrOutOfRange, addr, size, mr.addr, mr.size)
	}
	return mr, nil
}
