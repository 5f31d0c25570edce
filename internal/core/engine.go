package core

import (
	"cmp"
	"slices"

	"repro/internal/datapath"
	"repro/internal/gvmi"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// engine is one life of a proxy's progress engine (Figure 8 / Algorithm 1):
// drain control messages, fire matched transfers, resume blocked group
// schedules, repeat — run to completion as an event handler, with no stack
// of its own. It runs on a busy-until clock (sim.Busy): each costed call the
// engine makes — parsing a control message, posting a work request, a
// cross- or staging registration, a group's warm-up — schedules the engine's
// next step at the instant the cost is paid, and that step finishes the call
// (issues the post, mints the registration) and goes on from where the round
// stood. An idle engine parks on the proxy's inbox condition, so an arrival
// or a deferred completion schedules a step only when none is pending.
//
// A crash ends the life: the proxy drops the engine, and a step of it still
// pending, parked or due at the crash's very instant after it, does nothing.
// A restart starts a new one.
type engine struct {
	px  *Proxy
	clk sim.Busy // the engine is its step

	// What a paid-for call leaves to the next step: the work request to
	// issue (issue), or the transfer being prepared (txNext). The rest of
	// the unit of work the call cut short — a packet's dispatch, a pair's
	// billing, a group's advance, a deferred action — is the clock's
	// continuation.
	post verbs.Post
	tx   transfer

	// The round: which phase it is in, the snapshot the phase works through
	// (the inbox, the deferred completions, the matched pairs, the groups in
	// the order the round advances them) and how far.
	phase      phase
	progressed bool
	pkts       []*verbs.Packet
	acts       []sim.Action
	pairs      []pairMsg
	order      []*proxyGroup
	i          int

	pkt *verbs.Packet // the packet being handled
	grp *proxyGroup   // the group being advanced

	// On a tenant framework: the tenant of the work in progress and when
	// it began.
	ten int
	t0  sim.Time
}

// phase is where a round stands.
type phase uint8

const (
	phTop      phase = iota // between rounds
	phInbox                 // handling control messages
	phDeferred              // firing deferred completions
	phCombined              // transferring matched pairs
	phGroups                // advancing group schedules
)

// start begins a life of the proxy's engine, at the current instant (Start
// and every restart).
func (px *Proxy) start() {
	px.eng = newEngine(px)
	px.fw.cl.K.AtAction(0, px.eng)
}

// newEngine returns a life of px's engine, its clock bound to its steps.
func newEngine(px *Proxy) *engine {
	e := &engine{px: px}
	e.clk.Init(px.fw.cl.K, e)
	return e
}

// Fire runs one step: it finishes the costed call the last step paid for,
// then carries the round on until the next costed call, or parks.
func (e *engine) Fire(now sim.Time) {
	if e.px.eng != e {
		return // a crash ended this life
	}
	if e.clk.Settle(now) {
		return
	}
	e.run()
}

// busy pays for a costed call of d.
func (e *engine) busy(d sim.Time) { e.clk.Charge(d, nil) }

// await pays for posting p, which the next step issues.
func (e *engine) await(p verbs.Post) {
	e.post = p
	e.clk.Charge(p.Cost(), (*issue)(e))
}

// issue completes a paid-for post: the work request goes to the HCA.
type issue engine

func (i *issue) Fire(sim.Time) {
	e := (*engine)(i)
	p := e.post
	e.post = verbs.Post{}
	p.Issue()
}

// txNext completes a paid-for registration of the transfer being prepared:
// the transfer goes on to its next costed call.
type txNext engine

func (n *txNext) Fire(sim.Time) { n.px.advanceTransfer() }

// cut reports whether the running step paid for a costed call, and if so
// leaves rest to run once that call is settled (sim.Busy.Cut).
func (e *engine) cut(rest sim.Action) bool { return e.clk.Cut(rest) }

// run carries the round on from where it stands, round after round, until
// a costed call or until the proxy is idle, and then parks on the inbox.
// Each phase reports whether a costed call cut it.
func (e *engine) run() {
	px := e.px
	for {
		switch e.phase {
		case phTop:
			if px.fw.stopped {
				return
			}
			e.progressed = false
			e.phase = phInbox
			if px.sched != nil {
				e.pollTenants()
			} else {
				e.pkts, e.i = px.ctx.PollInbox(), 0
			}
		case phInbox:
			if e.inbox() {
				return
			}
			e.phase, e.acts, e.i = phDeferred, nil, 0
		case phDeferred:
			if e.deferredRound() {
				return
			}
			e.phase, e.pairs, e.i = phCombined, nil, 0
			if len(px.combined) > 0 {
				e.pairs = px.combined
				px.combined = px.paired[:0]
			}
		case phCombined:
			if e.combinedRound() {
				return
			}
			e.phase = phGroups
			e.orderGroups()
		case phGroups:
			if e.groupRound() {
				return
			}
			e.phase = phTop
			if !e.progressed && px.idle() {
				px.ctx.InboxCond.Park(px.fw.cl.K, e)
				return
			}
		}
	}
}

// inbox takes the next control message and pays its parsing cost, after
// which dispatchStep acts on it: the polled ones in arrival order or, on a
// tenant framework, the tenant queues' picks.
func (e *engine) inbox() bool {
	s := e.px.sched
	switch {
	case s == nil && e.i < len(e.pkts):
		e.pkt = e.pkts[e.i]
		e.i++
	case s != nil && s.queued > 0:
		t, qp := s.pick()
		ts := &s.ts[t]
		if !s.ten.FIFO {
			s.vtime = ts.pass
		}
		// Head-of-line delay: how much proxy time went to other tenants
		// while this packet sat queued.
		ts.mWait.Observe((s.totalBusy - ts.busy) - qp.othersBusy)
		ts.mDispatch.Inc()
		e.ten, e.t0, e.pkt = t, e.px.fw.cl.K.Now(), qp.pkt
	default:
		return false
	}
	e.progressed = true
	e.busy(proxyHandleCost)
	e.cut((*dispatchStep)(e))
	return true
}

// dispatchStep acts on e.pkt, whose parsing is paid for; packetDone
// follows once the dispatch and whatever costed calls it made are done.
type dispatchStep engine

func (st *dispatchStep) Fire(now sim.Time) {
	e := (*engine)(st)
	e.px.dispatch(e.pkt)
	if d := (*packetDone)(e); !e.cut(d) {
		d.Fire(now)
	}
}

// packetDone ends a packet's handling: on a tenant framework the packet is
// billed to its tenant and the inbox re-polled, so packets that arrived
// while a handler was busy enter the arbitration at once.
type packetDone engine

func (d *packetDone) Fire(sim.Time) {
	e := (*engine)(d)
	if s := e.px.sched; s != nil {
		e.bill()
		ts := &s.ts[e.ten]
		ts.mDepth.Set(float64(len(ts.q)))
		e.pollTenants()
	}
}

// deferredRound fires the completions queued by RDMA handlers, snapshot by
// snapshot until none is left.
func (e *engine) deferredRound() bool {
	px := e.px
	for {
		for e.i < len(e.acts) {
			a := e.acts[e.i]
			e.i++
			a.Fire(px.fw.cl.K.Now())
			if e.clk.Charged() {
				return true
			}
		}
		if e.acts != nil {
			clear(e.acts)
			px.drained = e.acts
			e.acts = nil
			e.progressed = true
		}
		if len(px.deferred) == 0 {
			return false
		}
		e.acts, e.i = px.deferred, 0
		px.deferred = px.drained[:0]
	}
}

// combinedRound transfers the matched pairs, each billed by pairDone once
// its transfer is posted.
func (e *engine) combinedRound() bool {
	px := e.px
	for e.i < len(e.pairs) {
		pr := e.pairs[e.i]
		e.i++
		e.begin(pr.rts.Src)
		px.transfer(pr)
		d := (*pairDone)(e)
		if e.cut(d) {
			return true
		}
		d.Fire(px.fw.cl.K.Now())
	}
	if e.pairs != nil {
		clear(e.pairs)
		px.paired = e.pairs
		e.pairs = nil
		e.progressed = true
	}
	return false
}

// pairDone bills the pair whose transfer is posted, on a tenant framework,
// for the proxy time and the wire time it took.
type pairDone engine

func (d *pairDone) Fire(sim.Time) {
	e := (*engine)(d)
	if e.bill() {
		e.px.wireCharge(e.ten, e.pairs[e.i-1].rts.Size)
	}
}

// begin notes, on a tenant framework, the tenant of host rank and the
// instant its work begins; bill charges it the proxy time that work took,
// once it is done, and reports whether there was a tenant to bill.
func (e *engine) begin(host int) {
	if s := e.px.sched; s != nil {
		e.ten, e.t0 = s.ten.TenantOf[host], e.px.fw.cl.K.Now()
	}
}

func (e *engine) bill() bool {
	s := e.px.sched
	if s != nil {
		s.addBusy(e.ten, e.px.fw.cl.K.Now()-e.t0)
	}
	return s != nil
}

// orderGroups starts the group phase over its order: the groups in install
// order — on a tenant framework too when it schedules FIFO (the
// no-isolation baseline) — or, under weighted fair scheduling, the active
// groups in grant order. Each grant is a single group advancement, given to
// the tenant with the least consumed weighted pass (ties to the tenant whose
// first active group was installed first, a tenant's groups in install
// order); the pass grows by the wire time of whatever the grant posted
// (over the tenant's weight). Only a grant that a costed call cut can post,
// so only after one is the order drawn again (groupStep); a grant that
// posted nothing moves no pass and changes no other group, and drawing the
// order again after it would give the same order. The quantum matters: when
// several tenants hold postable work at the same virtual instant, per-grant
// re-sorting is what interleaves their RDMA onto the shared port in weight
// proportion — coarser grants would let install order decide the wire
// order. A tenant whose groups cannot progress (waiting on remote
// deliveries) falls through to the next, so arbitration never blocks the
// engine.
func (e *engine) orderGroups() {
	px := e.px
	e.i = 0
	s := px.sched
	if s == nil || s.ten.FIFO {
		e.order = px.groupList
		return
	}
	e.order = e.order[:0]
	for _, g := range px.groupList {
		if g.active() {
			e.order = append(e.order, g)
		}
	}
	for i := len(e.order) - 1; i >= 0; i-- {
		s.of(e.order[i].host).first = i
	}
	slices.SortStableFunc(e.order, func(a, b *proxyGroup) int {
		ta, tb := s.of(a.host), s.of(b.host)
		return cmp.Or(cmp.Compare(ta.pass, tb.pass), cmp.Compare(ta.first, tb.first))
	})
}

// groupRound advances each active group of the order once, billing it to
// its tenant; groupStep finishes an advance that a costed call cut.
func (e *engine) groupRound() bool {
	for e.i < len(e.order) {
		g := e.order[e.i]
		e.i++
		if !g.active() {
			continue
		}
		e.begin(g.host)
		e.grp = g
		adv := e.px.advanceGroup(g)
		if e.cut((*groupStep)(e)) {
			return true
		}
		e.bill()
		if adv {
			e.progressed = true
		}
	}
	return false
}

// groupStep finishes the advance of e.grp that a costed call cut short — a
// call still running goes on walking its entries, one that ended with its
// completion notice is done — and bills it. A cut advance has progressed,
// and under weighted fair scheduling it ends a grant that may have moved a
// pass, so the order is drawn again.
type groupStep engine

func (st *groupStep) Fire(sim.Time) {
	e := (*engine)(st)
	if g := e.grp; g.running {
		e.px.advanceGroup(g)
		if e.cut(st) {
			return
		}
	}
	e.bill()
	e.progressed = true
	if s := e.px.sched; s != nil && !s.ten.FIFO {
		e.orderGroups()
	}
}

// pollTenants files the arrived control messages into their tenants'
// queues.
func (e *engine) pollTenants() {
	for _, pkt := range e.px.ctx.PollInbox() {
		e.px.sched.enqueue(pkt)
		e.progressed = true
	}
}

// transfer is a transfer the engine is preparing: what its path posts with
// is being resolved, and a costed call of the resolution is being paid for.
type transfer struct {
	step   txStep
	kind   datapath.Kind
	t      datapath.Transfer
	landed sim.Action
	memo   **verbs.MR // where a group entry memoizes its cross-registration

	cross gvmi.Crossing // txCrossed: the cross-registration being paid for
	span  span.ID       // its span
	reg   verbs.Reg     // txRegistered: the staging registration being paid for
}

type txStep uint8

const (
	txNone       txStep = iota // no transfer is being prepared
	txResolve                  // resolve what the path posts with
	txCrossed                  // a cross-registration's cost is paid
	txRegistered               // a staging registration attempt's cost is paid
)

// execute runs one transfer on the path of kind: the proxy resolves what the
// path posts with — the source's cross-registration (through the caches of
// Section VII-B) for CrossGVMI, a staging lease for Staged — and the path
// posts its first work request. Registrations are costed calls, so a
// transfer may take several steps; a group entry's cross-registration is
// memoized in *memo when the group cache is on.
func (px *Proxy) execute(kind datapath.Kind, t datapath.Transfer, landed sim.Action, memo **verbs.MR) {
	px.eng.tx = transfer{step: txResolve, kind: kind, t: t, landed: landed, memo: memo}
	px.advanceTransfer()
}

// advanceTransfer carries the transfer being prepared on to its next costed
// call: a registration, or the post that ends it.
func (px *Proxy) advanceTransfer() {
	tx := &px.eng.tx
	switch tx.step {
	case txResolve:
		switch tx.kind {
		case datapath.KindCrossGVMI:
			if tx.t.MR == nil && !px.crossCached(tx) {
				px.startCross(tx)
				return
			}
		case datapath.KindStaged:
			if !px.leaseStage(tx) {
				return
			}
		}
	case txCrossed:
		tx.t.MR = tx.cross.Finish()
		px.spans().End(tx.span)
		if px.fw.cfg.RegCaches {
			k := tx.t.MKey
			px.crossCache.Put(px.hostSlot(tx.t.SrcHost), k.Addr, k.Size, tx.t.MR)
		}
	case txRegistered:
		if !px.finishStage(tx) {
			return
		}
	}
	if tx.memo != nil && tx.t.MR != nil && px.fw.cfg.GroupCache {
		*tx.memo = tx.t.MR
	}
	kind, t, landed := tx.kind, tx.t, tx.landed
	*tx = transfer{}
	kind.Execute(px, t, landed)
}

// crossCached looks the source's cross-registration up in the proxy's
// cache, keyed by source host (Section VII-B), when caches are on.
func (px *Proxy) crossCached(tx *transfer) bool {
	if !px.fw.cfg.RegCaches {
		return false
	}
	k := tx.t.MKey
	mr, ok := px.crossCache.Get(px.hostSlot(tx.t.SrcHost), k.Addr, k.Size)
	tx.t.MR = mr
	return ok
}

// startCross cross-registers the source's host mkey. The span is opened
// here, so cache hits — which cost nothing — record nothing.
func (px *Proxy) startCross(tx *transfer) {
	info := tx.t.MKey
	var s span.ID
	if sp := px.spans(); sp.Enabled() {
		s = sp.Start(tx.t.Span, span.ClassHCA, px.entity, "verbs", "cross_reg")
		sp.AttrInt(s, "size", int64(info.Size))
	}
	x, err := px.fw.cl.GVMI.StartCross(px.ctx, info)
	if err != nil {
		panic("core: proxy " + px.entity + " cross-registration: " + err.Error())
	}
	tx.cross, tx.span, tx.step = x, s, txCrossed
	px.eng.clk.Charge(x.Cost(), (*txNext)(px.eng))
}

// leaseStage leases a registered DPU staging buffer of at least the
// transfer's size from the proxy's power-of-two pool. The first lease of a
// buffer registers it, a cost to the proxy's ARM core recorded under the
// transfer's span, and reports false while that is being paid for.
func (px *Proxy) leaseStage(tx *transfer) bool {
	cls := 1
	for cls < tx.t.Size {
		cls <<= 1
	}
	if pool := px.stagePool[cls]; len(pool) > 0 {
		tx.t.Stage = pool[len(pool)-1]
		pool[len(pool)-1] = nil
		px.stagePool[cls] = pool[:len(pool)-1]
		return true
	}
	buf := px.site.Space.Alloc(cls, px.fw.cl.Cfg.BackedPayload)
	tx.reg = px.ctx.StartReg(buf.Addr(), cls, tx.t.Span)
	tx.step = txRegistered
	px.eng.clk.Charge(tx.reg.Attempt(), (*txNext)(px.eng))
	return false
}

// finishStage ends a paid-for registration attempt of a new staging
// buffer: a failed one is tried again, a successful one becomes the lease.
func (px *Proxy) finishStage(tx *transfer) bool {
	mr := tx.reg.Finish()
	if mr == nil {
		px.eng.clk.Charge(tx.reg.Attempt(), (*txNext)(px.eng))
		return false
	}
	s := px.fw.stages.New()
	*s = datapath.Stage{LKey: mr.LKey(), Addr: mr.Addr(), Cap: mr.Size()}
	tx.t.Stage = s
	return true
}

// send posts a control packet from the proxy's context.
func (px *Proxy) send(dst *verbs.Ctx, pkt *verbs.Packet) {
	px.eng.await(px.ctx.StartSend(dst, pkt))
}

// post pays for a validated work request.
func (px *Proxy) post(p verbs.Post, err error) error {
	if err != nil {
		return err
	}
	px.eng.await(p)
	return nil
}
