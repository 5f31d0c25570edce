// Package gvmi models NVIDIA's cross-GVMI capability: the mechanism that
// lets a BlueField DPU process issue RDMA operations on behalf of a host
// process, directly from/into host memory, without staging.
//
// The protocol follows Section V of the paper:
//
//  1. A DPU (proxy) process generates a GVMI-ID, once per protection domain,
//     and shares it with its host processes.
//  2. A host process registers a buffer against that GVMI-ID, obtaining an
//     mkey, and ships (addr, size, mkey, gvmi-id) to the DPU process.
//  3. The DPU process cross-registers using exactly those parameters,
//     obtaining mkey2, which then acts as an lkey for RDMA posted by the
//     DPU while the data streams from the host buffer.
//
// Both registrations have distinct, size-dependent costs (the paper's
// Figure 5); cross-registration validates that the supplied parameters match
// the host registration, which is why naive single-sided registration caches
// are incorrect (Challenge 3).
package gvmi

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// ID identifies a guest virtual machine identifier (one per DPU protection
// domain).
type ID uint32

// MKeyInfo is the metadata a host process sends to a proxy so the proxy can
// cross-register: everything in it travels in RTS control messages.
type MKeyInfo struct {
	Addr mem.Addr
	Size int
	MKey verbs.Key
	Gvmi ID
}

// WireSize is the serialized size of an MKeyInfo in control messages.
const WireSize = 8 + 8 + 4 + 4

// CostConfig models the two registration costs.
type CostConfig struct {
	HostRegBase     sim.Time // host-side GVMI registration, fixed
	HostRegPerPage  sim.Time
	CrossRegBase    sim.Time // DPU-side cross-registration, fixed
	CrossRegPerPage sim.Time
	PageSize        int
}

// DefaultCosts gives the host registration roughly ibv_reg_mr costs and the
// cross-registration a higher base (mkey validation on slower ARM cores).
func DefaultCosts() CostConfig {
	return CostConfig{
		HostRegBase:     2200 * sim.Nanosecond,
		HostRegPerPage:  260 * sim.Nanosecond,
		CrossRegBase:    3500 * sim.Nanosecond,
		CrossRegPerPage: 320 * sim.Nanosecond,
		PageSize:        4096,
	}
}

func (c CostConfig) pages(size int) sim.Time {
	p := (size + c.PageSize - 1) / c.PageSize
	if p < 1 {
		p = 1
	}
	return sim.Time(p)
}

// HostRegCost returns the host-side registration cost for size bytes.
func (c CostConfig) HostRegCost(size int) sim.Time {
	return c.HostRegBase + c.pages(size)*c.HostRegPerPage
}

// CrossRegCost returns the DPU-side cross-registration cost for size bytes.
func (c CostConfig) CrossRegCost(size int) sim.Time {
	return c.CrossRegBase + c.pages(size)*c.CrossRegPerPage
}

// Manager owns GVMI-IDs and the mkey table for one simulation.
type Manager struct {
	reg    *verbs.Registry
	costs  CostConfig
	nextID ID
	owners map[ID]*verbs.Ctx // gvmi-id -> DPU ctx that generated it
	// mkeys holds the host registration records, dense: registration i
	// (from 0) has mkey firstMKey+i. An invalidated slot is zeroed and its
	// mkey is never handed out again. It holds one record per (rank, peer)
	// pair of an offloaded alltoall, and grows by pool.AppendReserved:
	// reserved counts the registrations installs have announced (Reserve)
	// and not yet made.
	mkeys    []hostEntry
	reserved int

	// Stats
	HostRegs     int64
	CrossRegs    int64
	HostRegTime  sim.Time
	CrossRegTime sim.Time
}

type hostEntry struct {
	info  MKeyInfo
	space *mem.Space // nil = invalidated
}

// firstMKey is the first host mkey: disjoint from verbs keys.
const firstMKey verbs.Key = 1<<20 + 1

// entry returns the live registration record of mk, or nil.
func (m *Manager) entry(mk verbs.Key) *hostEntry {
	if i := int(mk - firstMKey); mk >= firstMKey && i < len(m.mkeys) && m.mkeys[i].space != nil {
		return &m.mkeys[i]
	}
	return nil
}

// NewManager creates a GVMI manager sharing the verbs registry's fabric.
func NewManager(reg *verbs.Registry, costs CostConfig) *Manager {
	return &Manager{
		reg:    reg,
		costs:  costs,
		nextID: 1,
		owners: make(map[ID]*verbs.Ctx),
	}
}

// Costs returns the manager's cost configuration.
func (m *Manager) Costs() CostConfig { return m.costs }

// GenerateID creates a GVMI-ID owned by the DPU context (done once per
// protection domain, inside Init_Offload).
func (m *Manager) GenerateID(dpuCtx *verbs.Ctx) ID {
	id := m.nextID
	m.nextID++
	m.owners[id] = dpuCtx
	return id
}

// Errors returned by cross-registration validation.
var (
	ErrUnknownGVMI  = errors.New("gvmi: unknown GVMI-ID")
	ErrUnknownMKey  = errors.New("gvmi: unknown mkey")
	ErrMKeyMismatch = errors.New("gvmi: mkey parameters do not match host registration")
	ErrWrongOwner   = errors.New("gvmi: GVMI-ID not owned by this DPU context")
)

// RegisterHost performs the host-side GVMI registration of
// [addr, addr+size) against the proxy's GVMI-ID, charging p the host
// registration cost. The returned MKeyInfo is what travels to the proxy.
func (m *Manager) RegisterHost(p *sim.Proc, hostCtx *verbs.Ctx, addr mem.Addr, size int, id ID) (MKeyInfo, error) {
	if _, ok := m.owners[id]; !ok {
		return MKeyInfo{}, fmt.Errorf("%w: %d", ErrUnknownGVMI, id)
	}
	cost := m.costs.HostRegCost(size)
	m.HostRegs++
	m.HostRegTime += cost
	p.AdvanceBusy(cost)

	info := MKeyInfo{Addr: addr, Size: size, MKey: firstMKey + verbs.Key(len(m.mkeys)), Gvmi: id}
	m.mkeys = pool.AppendReserved(m.mkeys, hostEntry{info: info, space: hostCtx.Space()}, &m.reserved)
	return info, nil
}

// Reserve announces n host registrations to come, so the mkey table grows
// once for all the registrations announced before the next of them is made.
func (m *Manager) Reserve(n int) { m.reserved += n }

// CrossRegister performs the DPU-side registration: it validates the
// host-supplied parameters and mints mkey2 — a verbs MR owned by the DPU
// context but backed by the host buffer, usable as the lkey of RDMA writes
// the proxy posts on the host's behalf. p is charged the cross-registration
// cost. It is StartCross, p paying the cost, and Finish.
func (m *Manager) CrossRegister(p *sim.Proc, dpuCtx *verbs.Ctx, info MKeyInfo) (*verbs.MR, error) {
	x, err := m.StartCross(dpuCtx, info)
	if err != nil {
		return nil, err
	}
	p.AdvanceBusy(x.Cost())
	return x.Finish(), nil
}

// Crossing is a validated cross-registration whose cost is being paid, for
// a registrant that is not a process: StartCross validates and accounts it,
// and Finish, once Cost has been paid, mints mkey2.
type Crossing struct {
	m     *Manager
	ctx   *verbs.Ctx
	space *mem.Space
	info  MKeyInfo
}

// StartCross validates the host-supplied parameters against the host
// registration and accounts the cross-registration; see Crossing.
func (m *Manager) StartCross(dpuCtx *verbs.Ctx, info MKeyInfo) (Crossing, error) {
	owner, ok := m.owners[info.Gvmi]
	if !ok {
		return Crossing{}, fmt.Errorf("%w: %d", ErrUnknownGVMI, info.Gvmi)
	}
	if owner != dpuCtx {
		return Crossing{}, fmt.Errorf("%w: id %d", ErrWrongOwner, info.Gvmi)
	}
	ent := m.entry(info.MKey)
	if ent == nil {
		return Crossing{}, fmt.Errorf("%w: %d", ErrUnknownMKey, info.MKey)
	}
	if ent.info != info {
		return Crossing{}, fmt.Errorf("%w: got %+v want %+v", ErrMKeyMismatch, info, ent.info)
	}
	m.CrossRegs++
	m.CrossRegTime += m.costs.CrossRegCost(info.Size)
	return Crossing{m: m, ctx: dpuCtx, space: ent.space, info: info}, nil
}

// Cost returns the CPU time the cross-registration takes.
func (x Crossing) Cost() sim.Time { return x.m.costs.CrossRegCost(x.info.Size) }

// Finish mints mkey2 once the cost has been paid.
func (x Crossing) Finish() *verbs.MR {
	return x.m.reg.InsertForeignMR(x.ctx, x.space, x.info.Addr, x.info.Size)
}

// InvalidateHost removes an mkey (host buffer freed / cache eviction).
func (m *Manager) InvalidateHost(mk verbs.Key) {
	if ent := m.entry(mk); ent != nil {
		*ent = hostEntry{}
	}
}
