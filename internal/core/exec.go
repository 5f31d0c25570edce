package core

import (
	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Proxy implements datapath.Exec: it is the execution surface the
// pluggable datapaths post their RDMA sequences through. The methods are
// thin adapters over the proxy's existing machinery so a datapath's
// Execute reproduces the pre-refactor mechanism branches exactly.
var _ datapath.Exec = (*Proxy)(nil)

// PostWrite implements datapath.Exec.
func (px *Proxy) PostWrite(op verbs.WriteOp) error { return px.ctx.PostWrite(px.proc, op) }

// PostEngineWrite implements datapath.Exec: the write is posted through
// the node's DSA engine port (its own injection overhead and line rate)
// instead of the ARM-driven proxy context. The proxy core still pays the
// descriptor handoff (PostWR) — the control plane stays in software.
func (px *Proxy) PostEngineWrite(op verbs.WriteOp) error {
	if px.dsaCtx == nil {
		panic("core: KindDSA transfer on a node whose device profile has no DSA engine")
	}
	return px.dsaCtx.PostWrite(px.proc, op)
}

// PostRead implements datapath.Exec.
func (px *Proxy) PostRead(op verbs.ReadOp) error { return px.ctx.PostRead(px.proc, op) }

// CrossReg implements datapath.Exec.
func (px *Proxy) CrossReg(srcHost int, info gvmi.MKeyInfo, parent span.ID) *verbs.MR {
	return px.crossReg(srcHost, info, parent)
}

// AcquireStage implements datapath.Exec: it leases a registered DPU staging
// buffer of at least size bytes from the proxy's power-of-two pool. The
// first lease of a buffer charges its registration to the proxy's ARM core,
// recorded under parent.
func (px *Proxy) AcquireStage(size int, parent span.ID) *datapath.Stage {
	cls := 1
	for cls < size {
		cls <<= 1
	}
	if pool := px.stagePool[cls]; len(pool) > 0 {
		s := pool[len(pool)-1]
		pool[len(pool)-1] = nil
		px.stagePool[cls] = pool[:len(pool)-1]
		return s
	}
	buf := px.site.Space.Alloc(cls, px.fw.cl.Cfg.BackedPayload)
	mr := px.ctx.RegisterMRCtx(px.proc, buf.Addr(), cls, parent)
	s := px.fw.stages.New()
	*s = datapath.Stage{LKey: mr.LKey(), Addr: buf.Addr(), Cap: cls}
	return s
}

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

// CountEngine implements datapath.Exec.
func (px *Proxy) CountEngine() { px.EngineOps++ }
