package pattern

import (
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Replayer replays one rank's share of a pattern through group offload. It
// is the only place that records a pattern as a group request and runs the
// per-call step — decide, clamp host-direct, call, wait, observe — so Run
// and the tenant layer's pattern jobs cannot drift apart. All methods must
// be called from the process bound to the host handle.
type Replayer struct {
	h    *core.Host
	eng  *policy.Engine // nil: every call runs on the host's default path
	ops  []Op
	bufs []*mem.Buffer
	size int
	call int

	// One recorded group per datapath actually used: without a policy that
	// is exactly one; a measuring policy records a second group when it
	// probes the other proxy path (both replay through the group caches on
	// later calls).
	groups map[datapath.Kind]*core.GroupRequest
}

// NewReplayer prepares the replay of ops (one rank's operations, in spec
// order) on h. bufs[i] backs ops[i] (barriers need none). size is what every
// call's policy request carries: callers pick one value per rank up front so
// the ranks of a job decide alike.
func NewReplayer(h *core.Host, eng *policy.Engine, ops []Op, bufs []*mem.Buffer, size int) *Replayer {
	return &Replayer{h: h, eng: eng, ops: ops, bufs: bufs, size: size,
		groups: make(map[datapath.Kind]*core.GroupRequest)}
}

// group returns the group request recorded for datapath k, recording it on
// first use.
func (rp *Replayer) group(k datapath.Kind) *core.GroupRequest {
	g := rp.groups[k]
	if g == nil {
		g = rp.h.GroupStartVia(k)
		for i, op := range rp.ops {
			switch op.Type {
			case core.OpSend:
				g.Send(rp.bufs[i].Addr(), op.Size, op.Peer, op.Tag)
			case core.OpRecv:
				g.Recv(rp.bufs[i].Addr(), op.Size, op.Peer, op.Tag)
			case core.OpBarrier:
				g.LocalBarrier()
			}
		}
		g.End()
		rp.groups[k] = g
	}
	return g
}

// Call runs the pattern once, overlapping compute of host work between the
// group call and its wait, and returns the virtual time the call was issued.
// The policy (if any) picks the datapath and is fed the issue-to-completion
// latency; patterns only run on proxies, so a host-direct decision (small
// adaptive sizes) is clamped to the framework's default path.
func (rp *Replayer) Call(compute sim.Time) sim.Time {
	h, p := rp.h, rp.h.Proc()
	kind := h.DefaultPath()
	var q policy.Request
	if rp.eng != nil {
		q = policy.Request{Class: policy.ClassGroup, Size: rp.size, Call: rp.call}
		if k := rp.eng.Decide(q).Path; k != datapath.KindHostDirect {
			kind = k
		}
	}
	rp.call++
	g := rp.group(kind)
	t0 := p.Now()
	h.GroupCall(g)
	if compute > 0 {
		p.AdvanceBusy(compute)
	}
	h.GroupWait(g)
	if rp.eng != nil {
		rp.eng.Observe(q, kind, p.Now()-t0)
	}
	return t0
}
