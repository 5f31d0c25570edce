package core

import (
	"repro/internal/datapath"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// Proxy implements datapath.Exec: it is the execution surface the
// pluggable datapaths post their RDMA sequences through, once the proxy has
// resolved what they post with (see Proxy.execute).
var _ datapath.Exec = (*Proxy)(nil)

// PostWrite implements datapath.Exec: posting is a costed call of the
// proxy's engine, and the write issues at the step that ends it.
func (px *Proxy) PostWrite(op verbs.WriteOp) error { return px.post(px.ctx.StartWrite(op)) }

// PostEngineWrite implements datapath.Exec: the write is posted through
// the node's DSA engine port (its own injection overhead and line rate)
// instead of the ARM-driven proxy context. The proxy core still pays the
// descriptor handoff (PostWR) — the control plane stays in software.
func (px *Proxy) PostEngineWrite(op verbs.WriteOp) error {
	if px.dsaCtx == nil {
		panic("core: KindDSA transfer on a node whose device profile has no DSA engine")
	}
	return px.post(px.dsaCtx.StartWrite(op))
}

// PostRead implements datapath.Exec, as PostWrite does.
func (px *Proxy) PostRead(op verbs.ReadOp) error { return px.post(px.ctx.StartRead(op)) }

// ReleaseStage implements datapath.Exec: the lease returns to the pool of
// its size class. After a crash that is the restarted proxy's new pool.
func (px *Proxy) ReleaseStage(s *datapath.Stage) {
	px.stagePool[s.Cap] = append(px.stagePool[s.Cap], s)
}

// Later implements datapath.Exec.
func (px *Proxy) Later(a sim.Action) { px.later(a) }

// CountWrite implements datapath.Exec.
func (px *Proxy) CountWrite() { px.RDMAWrites++ }

// CountRead implements datapath.Exec.
func (px *Proxy) CountRead() { px.RDMAReads++ }

// CountStaged implements datapath.Exec.
func (px *Proxy) CountStaged() { px.StagedOps++ }
