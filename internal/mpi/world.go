// Package mpi implements an MPI-like message-passing library on the
// simulated cluster: ranks, eager and rendezvous point-to-point transfer
// protocols with tag matching, blocking and nonblocking operations, and a
// set of collectives.
//
// Its progress model reproduces the semantics the paper's Section II-A
// criticizes: communication state machines advance only while the process
// is inside an MPI call (Test/Wait/blocking operations). Data that arrives
// while the application computes sits in the NIC until the next MPI call;
// dependent steps of a pattern (e.g. the forward leg of a ring broadcast)
// cannot start without CPU intervention. This is the "IntelMPI"-style host
// baseline the offload framework is compared against.
//
// The progress runs as event-handler steps on each rank's busy-until clock
// (sim.Busy), not on the rank's stack: a call runs inline until its first
// costed action, then parks the rank's process, and the rest of the call —
// posting, matching, copying, the rendezvous FIN, the collective schedules
// — runs as steps until the last one resumes the process (steps.go). The
// semantic is enforced, not only modelled: a step is scheduled only by a
// call, and one that fires while its rank is outside a call panics.
package mpi

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/regcache"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/verbs"
)

// Wildcards for Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// The library's protocol constants.
const (
	// eagerThreshold is the largest message sent eagerly (copied through
	// bounce buffers, 16 KiB); larger messages use the rendezvous protocol.
	eagerThreshold = 16 << 10
	// headerSize is the wire size of a message header / control packet.
	headerSize = 64
	// matchCost is the CPU cost of processing one incoming header.
	matchCost = 60 * sim.Nanosecond
)

// World is a communicator spanning all host processes of the cluster (or,
// for placed worlds, the subset of node slots one tenant job occupies).
type World struct {
	Cl     *cluster.Cluster
	ranks  []*Rank
	nodeOf []int  // node of each world rank (placed worlds need not follow cluster geometry)
	prefix string // site/process name prefix ("" for the single-world case)

	// msgs recycles message records (see freeMsg); their packets come from
	// the verbs registry's pool. rndvs recycles rendezvous reads (rndv),
	// reqs the handles of Isend and Irecv (see freeReq), colls those of the
	// nonblocking collectives (see WaitColl).
	msgs  pool.List[inMsg]
	rndvs pool.List[rndv]
	reqs  pool.List[Request]
	colls pool.List[CollRequest]

	// Metric handles; nil (inert) when metrics are off.
	mEager   *metrics.Counter
	mRdv     *metrics.Counter
	mShm     *metrics.Counter
	mRecvLat *metrics.Histogram
}

// NewWorld creates the world communicator and its rank state (processes are
// spawned by Launch). It spans every host slot of the cluster in the
// cluster's own rank geometry.
func NewWorld(cl *cluster.Cluster) *World {
	nodeOf := make([]int, cl.Cfg.NP())
	for i := range nodeOf {
		nodeOf[i] = cl.NodeOfRank(i)
	}
	return NewPlacedWorld(cl, "", nodeOf)
}

// NewPlacedWorld creates a world of len(nodeOf) ranks where world rank i
// lives on node nodeOf[i]. It is the multi-tenant constructor: several
// worlds can share one cluster, each occupying its own slice of every
// node's slots. prefix disambiguates site and process names between worlds
// ("" reproduces the single-world names). World ranks are dense and
// job-local; the cluster's NodeOfRank geometry does not apply to them.
func NewPlacedWorld(cl *cluster.Cluster, prefix string, nodeOf []int) *World {
	w := &World{Cl: cl, nodeOf: append([]int(nil), nodeOf...), prefix: prefix}
	if m := cl.Met; m.Enabled() {
		w.mEager = m.Counter("mpi", "all", "eager_msgs")
		w.mRdv = m.Counter("mpi", "all", "rendezvous_msgs")
		w.mShm = m.Counter("mpi", "all", "shm_msgs")
		w.mRecvLat = m.Histogram("mpi", "all", "recv_match_latency_ns")
	}
	np := len(nodeOf)
	for i := 0; i < np; i++ {
		entity := fmt.Sprintf("rank%d", i)
		site := cl.NewHostSite(nodeOf[i], prefix+entity)
		r := &Rank{
			w:        w,
			rank:     i,
			entity:   entity,
			site:     site,
			regCache: regcache.New[*verbs.MR](1, 0, nil), // register keys slot 0 only
		}
		r.clk.Init(cl.K, (*rankStep)(r))
		if cl.Met.Enabled() {
			r.regCache.Instrument(cl.Met, "mpi."+prefix+entity)
		}
		w.ranks = append(w.ranks, r)
	}
	return w
}

// freeMsg recycles a consumed message record into w.msgs, whose Get hands
// out zeroed records (a recycled one keeps its empty payload storage, see
// copyIn); the message's consumer is its last holder, like the verbs flight
// records. Fault plans change nothing here: verbs re-sends only a packet
// that was not delivered, so each message reaches at most one rank, at most
// once.
func (w *World) freeMsg(m *inMsg) {
	*m = inMsg{buf: m.buf[:0]}
	w.msgs.Put(m)
}

// freeReq recycles a request handle into w.reqs once Wait or WaitAll has
// seen it done. Nothing below the caller holds a done request: a matched
// receive has left the posted queue, and the message or FIN that completed
// a send was consumed by the dispatch that marked it done. The rndv record
// of a rendezvous receive may still point at it until its FIN is out, but
// never reads it again.
func (w *World) freeReq(q *Request) {
	*q = Request{}
	w.reqs.Put(q)
}

// packet wraps m for the wire in a pooled packet, which the receiving
// progress pass returns to the registry once it has read the payload.
func (w *World) packet(size int, m *inMsg, parent span.ID) *verbs.Packet {
	pkt := w.Cl.Reg.GetPacket()
	pkt.Kind, pkt.Size, pkt.Payload, pkt.Span = "mpi", size, m, parent
	return pkt
}

// SameNode reports whether two world ranks share a node. Placed worlds must
// use this instead of cluster.SameNode: world ranks are job-local and do
// not follow the cluster's rank geometry.
func (w *World) SameNode(a, b int) bool { return w.nodeOf[a] == w.nodeOf[b] }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's state (for inspection; its methods must only be
// called from its own process).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Launch spawns one simulated process per rank running main. Call
// cluster.K.Run() afterwards to execute the program.
func (w *World) Launch(main func(r *Rank)) {
	for _, r := range w.ranks {
		r := r
		w.Cl.K.Spawn(w.prefix+r.entity, func(p *sim.Proc) {
			r.proc = p
			main(r)
		})
	}
}

// Rank is the per-process MPI state. All methods must be called from the
// rank's own simulated process.
type Rank struct {
	w      *World
	rank   int
	entity string        // "rank<N>": span entity name
	site   *cluster.Site // its Ctx is the rank's verbs context
	proc   *sim.Proc

	posted     []*Request  // posted receives, in post order
	unexpected []*inMsg    // arrived but unmatched messages
	deferred   []*rndv     // rendezvous reads done, FINs to post at the next progress
	drained    []*rndv     // the buffer deferred swaps with in a progress pass
	shmIn      []*inMsg    // intra-node (shared-memory) arrivals
	shmDrained []*inMsg    // the buffer shmIn swaps with in a progress pass
	barReqs    [2]Request  // Barrier's send and receive, reused every round
	a2aSlabs   [][]Request // Ialltoall request slabs of finished calls, reused
	colls      []*CollRequest
	collSeq    int // per-rank collective sequence number (tag separation)

	steps // the call in progress and its steps (steps.go)

	regCache   *regcache.Cache[*verbs.MR]
	scratchBuf *mem.Buffer
	worldComm  *Comm
	commSeq    int // sub-communicator creation counter (tag scoping)

	// Stats
	MPITime     sim.Time // time spent inside blocking and progress calls (each counted once)
	ComputeTime sim.Time // time spent in Compute

	// spanParent, when non-zero, parents every p2p root span the rank
	// opens. Collective wrappers that run on the host library (coll's
	// policy-routed host-direct path) set it around the host call so the
	// per-transfer mpi spans attach under the collective's root instead
	// of becoming roots themselves.
	spanParent span.ID
}

// SetSpanParent installs (or, with 0, clears) the ambient parent span of
// the rank's subsequently created p2p spans.
func (r *Rank) SetSpanParent(id span.ID) { r.spanParent = id }

// Entity returns the rank's span entity name ("rank<N>", N job-local).
func (r *Rank) Entity() string { return r.entity }

// RankID returns the rank number.
func (r *Rank) RankID() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Proc returns the rank's simulated process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Site returns the rank's hardware attachment point.
func (r *Rank) Site() *cluster.Site { return r.site }

// World returns the communicator.
func (r *Rank) World() *World { return r.w }

// Space returns the rank's address space.
func (r *Rank) Space() *mem.Space { return r.site.Space }

// Alloc allocates a buffer in the rank's space, payload-backed according to
// the cluster configuration.
func (r *Rank) Alloc(size int) *mem.Buffer {
	return r.site.Space.Alloc(size, r.w.Cl.Cfg.BackedPayload)
}

// Compute models application computation for d: the CPU is busy and no MPI
// progress happens (the crux of the paper's semantic-mismatch argument). It
// is the one call that sleeps the rank's process.
func (r *Rank) Compute(d sim.Time) {
	r.ComputeTime += d
	r.proc.AdvanceBusy(d)
}

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// enter/leave bracket blocking MPI calls for the MPITime statistic.
func (r *Rank) enter() sim.Time { return r.proc.Now() }

func (r *Rank) leave(t0 sim.Time) { r.MPITime += r.proc.Now() - t0 }
