// Package datapath defines the data-movement paths of the offload
// framework. The paper fixes the execution path at job launch (Section
// VII's mechanism enum); here a path is a Kind, chosen per operation by a
// policy engine (package policy) instead of per job, and Kind.Execute
// switches on it:
//
//   - CrossGVMI: the paper's proposed path — the proxy cross-registers the
//     source host buffer through cross-GVMI and RDMA-writes it straight
//     into the destination host's memory (Figure 6, no staging);
//   - Staged: the BluesMPI-style state-of-the-art path — RDMA-read into
//     DPU staging memory, then RDMA-write toward the destination (one
//     extra hop);
//   - DSA: the engine-driven path of DSA-equipped off-path parts — the
//     proxy hands the write to the hardware DMA engine;
//   - HostDirect: no proxy at all — the transfer runs on the host MPI
//     library's eager/rendezvous path (the "IntelMPI" baseline). It has no
//     proxy-side execution: the host's MPI calls post it.
//
// The proxy-executed paths byte-for-byte reproduce the RDMA post sequences,
// statistics, and completion ordering of the pre-refactor mechanism
// branches — fixed policies therefore reproduce the old presets bit-exactly.
package datapath

import (
	"fmt"

	"repro/internal/gvmi"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Kind identifies a datapath on the wire and in policy tables.
type Kind int

// The datapaths.
const (
	// KindCrossGVMI is the proposed direct host-to-host path.
	KindCrossGVMI Kind = iota
	// KindStaged bounces through DPU DRAM (baseline path).
	KindStaged
	// KindHostDirect is the host MPI path; no proxy involvement.
	KindHostDirect
	// KindDSA is the engine-driven path of DSA-equipped off-path parts:
	// the proxy hands the descriptor to the hardware DMA engine, which
	// posts the host-to-host write itself — skipping the ARM cores'
	// injection overhead entirely.
	KindDSA

	numKinds
)

// String implements fmt.Stringer. The names match the -policy CLI values
// and the "mech" span attribute recorded on proxy transfer spans.
func (k Kind) String() string {
	switch k {
	case KindCrossGVMI:
		return "gvmi"
	case KindStaged:
		return "staged"
	case KindHostDirect:
		return "hostdirect"
	case KindDSA:
		return "dsa"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// Valid reports whether k names one of the datapaths.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Caps is the device-capability subset the datapath layer consults
// (derived from a node's device.Profile by the core framework).
type Caps struct {
	// CrossGVMI: the part supports cross-function registration, so the
	// proposed zero-copy path exists.
	CrossGVMI bool
	// DSA: the part has a hardware DMA engine with its own injection
	// port.
	DSA bool
}

// Resolve maps a requested datapath to the one a node with capabilities c
// can actually run. Cross-GVMI requests on parts without cross-function
// registration ride the DSA engine when present and the staged path
// otherwise; DSA requests on engineless parts fall back the same way in
// reverse. The resolution is deterministic and identical on every rank
// that knows the sender's capabilities, so senders and receivers agree.
// On full-caps profiles it is the identity — the pre-substrate behaviour.
func Resolve(k Kind, c Caps) Kind {
	switch k {
	case KindCrossGVMI:
		if !c.CrossGVMI {
			if c.DSA {
				return KindDSA
			}
			return KindStaged
		}
	case KindDSA:
		if !c.DSA {
			if c.CrossGVMI {
				return KindCrossGVMI
			}
			return KindStaged
		}
	}
	return k
}

// SrcReg says what a sending host must register before handing the
// transfer to its proxy.
type SrcReg int

// Source-registration requirements.
const (
	// RegGVMI: register the source buffer against the proxy's GVMI so the
	// proxy can cross-register it (CrossGVMI path).
	RegGVMI SrcReg = iota
	// RegIB: plain IB registration; the proxy RDMA-reads the source
	// (Staged path).
	RegIB
	// RegNone: nothing — the transfer never reaches a proxy (HostDirect).
	RegNone
)

// SrcReg returns what a transfer on path k needs registered. DSA needs
// plain IB registration, like Staged: the engine addresses host memory
// through the source rkey.
func (k Kind) SrcReg() SrcReg {
	switch k {
	case KindCrossGVMI:
		return RegGVMI
	case KindStaged, KindDSA:
		return RegIB
	case KindHostDirect:
		return RegNone
	}
	panic(fmt.Sprintf("datapath: no implementation for %v", k))
}

// Stage is a registered DPU staging buffer, leased from the executor's pool
// before Execute (Transfer.Stage) and returned by ReleaseStage (Staged path
// only). The executor builds it and fills in the buffer fields; the rest is the state
// of the one transfer that holds the lease, so a staged send rides its lease
// and allocates nothing. The stage is itself the completion handler of its
// read and its write (Fire), and its twin stageStep the deferred step that
// follows each.
type Stage struct {
	LKey verbs.Key // local key of the buffer's registration
	Addr mem.Addr
	Cap  int // buffer size: the pool's size class

	x       Exec
	dstAddr mem.Addr
	dstRKey verbs.Key
	size    int
	span    span.ID
	landed  sim.Action
	wrote   bool // the read has landed and the write is posted
}

// Exec is the proxy-side execution surface a path posts through. It is
// implemented by core.Proxy; keeping it an interface here breaks the
// import cycle and lets the paths be tested against fakes.
type Exec interface {
	// PostWrite / PostRead post RDMA from the proxy's context.
	PostWrite(op verbs.WriteOp) error
	PostRead(op verbs.ReadOp) error
	// ReleaseStage returns a staging lease to the executor's pool.
	ReleaseStage(*Stage)
	// Later defers a to the executor's next progress round (completion
	// handlers run in kernel handler context).
	Later(a sim.Action)
	// PostEngineWrite posts an RDMA write through the node's DSA engine
	// port instead of the ARM-driven proxy context (KindDSA only; panics
	// on nodes whose profile has no engine — Resolve prevents that).
	PostEngineWrite(op verbs.WriteOp) error
	// Stat counters (mirrors the proxy's RDMAWrites/RDMAReads/StagedOps).
	CountWrite()
	CountRead()
	CountStaged()
}

// Transfer describes one source-to-destination movement a proxy executes.
type Transfer struct {
	SrcHost int // source host rank (cross-reg cache key, trace detail)
	DstRank int // destination rank (trace detail only)
	Size    int

	// CrossGVMI source: the host-registered GVMI mkey, and its
	// cross-registration, which the executor resolves before Execute
	// (through its caches, or by registering).
	MKey gvmi.MKeyInfo
	MR   *verbs.MR

	// Staged: the staging lease of at least Size bytes the executor took
	// for the transfer before Execute.
	Stage *Stage

	// Source address, and — Staged path — the plain IB rkey the proxy
	// reads through.
	SrcAddr mem.Addr
	SrcRKey verbs.Key

	// Destination window.
	DstAddr mem.Addr
	DstRKey verbs.Key

	// Span is the causal parent of all work posted for this transfer.
	Span span.ID
}

// Execute posts the first work request of one transfer on path k — the
// one costed call it makes, and its last — and arranges for landed to run —
// in kernel handler context, so it may only queue work (Exec.Later) — when
// the data has fully landed in the destination memory (for Staged, after
// the staging buffer's return to the pool has been queued, so whatever
// landed defers runs behind it). No path builds a closure: the
// single-write paths hand landed to the HCA as it is, and Staged keeps it
// in the leased Stage, so a caller whose pooled record is its own landed
// handler (group entries and proxy transfer records are) posts without
// allocating. The resources a path posts with are resolved by the executor
// first: the cross-registration for CrossGVMI (t.MR), the staging lease for
// Staged (t.Stage).
//
// CrossGVMI writes from the cross-registered source straight into the
// destination. Staged RDMA-reads the source into the staging lease, and its
// read's completion queues the write from the stage to the destination —
// the extra hop the cross-GVMI design removes. DSA has the node's DMA
// engine post the write, through its own port, from the source's plain IB
// registration: the proxy still matches the rendezvous (the control plane
// stays in software), but no cross-function registration is needed and
// the engine's per-descriptor overhead undercuts even the host port.
// HostDirect transfers never reach a proxy: the host MPI library posts and
// progresses them (progress only inside MPI calls — the semantic mismatch
// the paper's Section II-A criticizes).
func (k Kind) Execute(x Exec, t Transfer, landed sim.Action) {
	switch k {
	case KindCrossGVMI:
		x.CountWrite()
		must(k, "write", x.PostWrite(write(t, t.MR.LKey(), landed)))
	case KindStaged:
		s := t.Stage
		s.x, s.landed, s.wrote = x, landed, false
		s.dstAddr, s.dstRKey, s.size, s.span = t.DstAddr, t.DstRKey, t.Size, t.Span
		x.CountStaged()
		x.CountRead()
		must(k, "read", x.PostRead(verbs.ReadOp{
			LocalKey: s.LKey, LocalAddr: s.Addr,
			RemoteKey: t.SrcRKey, RemoteAddr: t.SrcAddr,
			Size:       t.Size,
			Span:       t.Span,
			OnComplete: s,
		}))
	case KindDSA:
		x.CountWrite()
		must(k, "write", x.PostEngineWrite(write(t, t.SrcRKey, landed)))
	case KindHostDirect:
		panic("datapath: HostDirect transfers are posted by the host, not a proxy")
	default:
		panic(fmt.Sprintf("datapath: no implementation for %v", k))
	}
}

// write is the single write of t from the source, under local key lkey.
func write(t Transfer, lkey verbs.Key, landed sim.Action) verbs.WriteOp {
	return verbs.WriteOp{
		LocalKey: lkey, LocalAddr: t.SrcAddr,
		RemoteKey: t.DstRKey, RemoteAddr: t.DstAddr,
		Size:             t.Size,
		Span:             t.Span,
		OnRemoteComplete: landed,
	}
}

// must panics on a post the executor refused: the transfer's keys and
// windows were resolved for it, so a refusal is a bug.
func must(k Kind, op string, err error) {
	if err != nil {
		panic(fmt.Sprintf("datapath: %v %s: %v", k, op, err))
	}
}

// Fire completes the read, then the write (kernel handler context).
func (s *Stage) Fire(at sim.Time) {
	s.x.Later((*stageStep)(s))
	if s.wrote {
		s.landed.Fire(at)
	}
}

// stageStep is a Stage's deferred step: it posts the write once the read
// has landed, and returns the lease once the write has.
type stageStep Stage

func (st *stageStep) Fire(sim.Time) {
	s := (*Stage)(st)
	x := s.x
	if s.wrote {
		s.x, s.landed = nil, nil
		x.ReleaseStage(s)
		return
	}
	s.wrote = true
	x.CountWrite()
	must(KindStaged, "write", x.PostWrite(verbs.WriteOp{
		LocalKey: s.LKey, LocalAddr: s.Addr,
		RemoteKey: s.dstRKey, RemoteAddr: s.dstAddr,
		Size:             s.size,
		Span:             s.span,
		OnRemoteComplete: s,
	}))
}
