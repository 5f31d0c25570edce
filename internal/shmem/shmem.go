// Package shmem demonstrates the framework's programming-model agnosticism
// (Section I: "designed to be programming model agnostic") by layering an
// OpenSHMEM-flavoured one-sided API — Put / Get / Quiet over a symmetric
// heap — on the same offload machinery that backs the MPI-style
// collectives.
//
// Each PE exposes its symmetric heap once as a core.Window (IB rkey +
// cross-GVMI mkey registered to its proxy); windows are exchanged at
// startup. A Put or Get is then a single control message to one DPU proxy,
// which moves the data between host memories directly — neither the target
// PE's CPU nor any further host involvement is needed, and transfers
// progress while the initiator computes.
package shmem

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// World is a SHMEM job: one PE per host process with a symmetric heap.
type World struct {
	fw       *core.Framework
	heapSize int
	pes      []*PE
	windows  []core.Window // published at startup, indexed by PE

	ready     int // PEs that have completed Bind
	readyCond sim.Cond
}

// PE is one processing element. Methods must be called from its process,
// after Bind.
type PE struct {
	w        *World
	id       int
	host     *core.Host
	site     *cluster.Site
	heap     *mem.Buffer
	heapUsed int

	pending []*core.OffloadRequest // outstanding puts/gets, drained by Quiet
}

// New creates a SHMEM world over an offload framework. heapSize is the
// symmetric-heap capacity per PE.
func New(fw *core.Framework, sites []*cluster.Site, heapSize int) *World {
	w := &World{fw: fw, heapSize: heapSize, windows: make([]core.Window, len(sites))}
	for i, site := range sites {
		w.pes = append(w.pes, &PE{
			w: w, id: i, host: fw.Host(i), site: site,
			heap: site.Space.Alloc(heapSize, fw.Cluster().Cfg.BackedPayload),
		})
	}
	return w
}

// PE returns processing element i.
func (w *World) PE(i int) *PE { return w.pes[i] }

// NPEs returns the number of processing elements (shmem_n_pes).
func (w *World) NPEs() int { return len(w.pes) }

// Bind attaches the PE to its simulated process and exposes its symmetric
// heap (shmem_init). Call once per PE before any communication; the window
// exchange itself is modelled as part of initialization.
func (pe *PE) Bind(p *sim.Proc) {
	pe.host.Bind(p)
	pe.w.windows[pe.id] = pe.host.ExposeWindow(pe.heap.Addr(), pe.heap.Size())
	// The window exchange is collective: no PE may communicate before all
	// windows are published.
	pe.w.ready++
	pe.w.readyCond.Broadcast()
	for pe.w.ready < len(pe.w.pes) {
		pe.w.readyCond.Wait(p)
	}
}

// ID returns the PE number (shmem_my_pe).
func (pe *PE) ID() int { return pe.id }

// SymAddr is a symmetric-heap offset, valid on every PE.
type SymAddr int

// Malloc carves size bytes from the symmetric heap (shmem_malloc). All PEs
// must allocate in the same order.
func (pe *PE) Malloc(size int) SymAddr {
	if size <= 0 {
		panic("shmem: non-positive allocation")
	}
	aligned := (size + 63) &^ 63
	if pe.heapUsed+aligned > pe.heap.Size() {
		panic(fmt.Sprintf("shmem: symmetric heap exhausted (%d+%d > %d)",
			pe.heapUsed, aligned, pe.heap.Size()))
	}
	off := SymAddr(pe.heapUsed)
	pe.heapUsed += aligned
	return off
}

// Bytes exposes the local backing storage at a symmetric address.
func (pe *PE) Bytes(a SymAddr, n int) []byte {
	return pe.site.Space.ReadAt(pe.heap.Addr()+mem.Addr(a), n)
}

// Put starts a nonblocking put of n bytes from local src to dst on the
// target PE (shmem_put_nbi): one control message to this PE's proxy, which
// writes straight from this PE's heap into the target's.
func (pe *PE) Put(dst SymAddr, src SymAddr, n, target int) {
	req := pe.host.PutOffload(pe.w.windows[pe.id], int(src), pe.w.windows[target], int(dst), n)
	pe.pending = append(pe.pending, req)
}

// Get starts a nonblocking get of n bytes from src on the target PE into
// local dst (shmem_get_nbi): one control message to the *target's* proxy,
// which sources the data via cross-GVMI without running any target code.
func (pe *PE) Get(dst SymAddr, src SymAddr, n, target int) {
	req := pe.host.GetOffload(pe.w.windows[pe.id], int(dst), pe.w.windows[target], int(src), n)
	pe.pending = append(pe.pending, req)
}

// Quiet blocks until all outstanding puts and gets by this PE have
// completed remotely (shmem_quiet). WaitAll releases their requests, so the
// pending list is cleared before it is reused.
func (pe *PE) Quiet() {
	if len(pe.pending) == 0 {
		return
	}
	pe.host.WaitAll(pe.pending...)
	clear(pe.pending)
	pe.pending = pe.pending[:0]
}

// Compute models local computation; offloaded transfers progress meanwhile.
func (pe *PE) Compute(d sim.Time) { pe.host.Proc().AdvanceBusy(d) }
