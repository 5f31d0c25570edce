package core

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// rigRun is the outcome of one run of the recycled-records rig.
type rigRun struct {
	cl  *cluster.Cluster
	fw  *Framework
	got [][]byte   // per rank: every received payload, in receive-post order
	end []sim.Time // per rank: virtual finish time
}

// The recycled-records rig: four backed ranks on two nodes. In each of
// three iterations every rank sends every other rank an MPI eager message,
// a large MPI message (intra-node shm or inter-node rendezvous), across
// nodes an offloaded Send_Offload/Recv_Offload message, and one block of a
// group-offloaded exchange (whose delivery notifications are pooled too),
// each with a byte pattern of its own. Odd ranks compute before posting
// their receives, so their messages arrive unexpected. A barrier closes
// every iteration. The framework runs the proposed design, or the staged
// one with no group cache (stagedConfig), where the offloaded messages ride
// staging leases and every group call gathers its metadata again.
const rigIters = 3

// rigSizes are the rig's message sizes by kind: MPI eager, MPI large,
// offloaded, group-offloaded.
var rigSizes = [4]int{1000, 40000, 24000, 8000}

// rigFaults is a plan with every message fault kind — drops, corruption,
// delay spikes and error CQEs — and one proxy crash with restart, which
// sends the ranks it serves to the host-progressed fallback.
func rigFaults() *fault.Config {
	plan := fault.Scaled(5, 0.1)
	plan.Crashes = []fault.Crash{{Proxy: 0, At: 30 * sim.Microsecond, RestartAfter: 20 * sim.Microsecond}}
	return plan
}

// stagedConfig is the BluesMPI design minus its warm-up penalty: the staged
// datapath with no group cache.
func stagedConfig() Config {
	cfg := DefaultConfig()
	cfg.Path = datapath.KindStaged
	cfg.GroupCache = false
	return cfg
}

// rigPlans are the fault plans every rig check runs under: none, a
// zero-rate plan (the same path with nothing injected), every message fault
// kind without crashes, and rigFaults.
func rigPlans() []rigPlan {
	return []rigPlan{{"no plan", nil}, {"zero rate", fault.DefaultConfig(1)}, {"lossy", fault.Scaled(5, 0.1)}, {"faults", rigFaults()}}
}

type rigPlan struct {
	name string
	plan *fault.Config
}

// rigPattern is the payload of message kind k from src to dst in iteration
// it: distinct per message and per iteration, so a stale record shows.
func rigPattern(src, dst, k, it int) []byte {
	b := make([]byte, rigSizes[k])
	for i := range b {
		b[i] = byte(src*37 + dst*11 + k*5 + it*3 + i)
	}
	return b
}

func runRig(t *testing.T, cfg Config, plan *fault.Config) rigRun {
	t.Helper()
	ccfg := cluster.DefaultConfig(2, 2)
	ccfg.Fault = plan
	cl := cluster.New(ccfg)
	w := mpi.NewWorld(cl)
	np := w.Size()
	sites := make([]*cluster.Site, np)
	for i := range sites {
		sites[i] = w.Rank(i).Site()
	}
	fw := New(cl, cfg, sites)
	fw.Start()
	run := rigRun{cl: cl, fw: fw, got: make([][]byte, np), end: make([]sim.Time, np)}
	w.Launch(func(r *mpi.Rank) {
		me := r.RankID()
		h := fw.Host(me)
		h.Bind(r.Proc())
		type slot struct {
			peer, k    int
			send, recv *mem.Buffer
		}
		var slots []slot
		for peer := 0; peer < np; peer++ {
			for k := range rigSizes {
				if peer == me || (k == 2 && w.SameNode(me, peer)) {
					continue
				}
				slots = append(slots, slot{peer, k, r.Alloc(rigSizes[k]), r.Alloc(rigSizes[k])})
			}
		}
		g := h.GroupStart()
		for _, s := range slots {
			if s.k == 3 {
				g.Recv(s.recv.Addr(), rigSizes[3], s.peer, 3)
			}
		}
		for _, s := range slots {
			if s.k == 3 {
				g.Send(s.send.Addr(), rigSizes[3], s.peer, 3)
			}
		}
		g.End()
		for it := 0; it < rigIters; it++ {
			var mreqs []*mpi.Request
			var oreqs []*OffloadRequest
			for _, s := range slots {
				copy(s.send.Bytes(), rigPattern(me, s.peer, s.k, it))
				switch s.k {
				case 2:
					oreqs = append(oreqs, h.SendOffload(s.send.Addr(), rigSizes[2], s.peer, 2))
				case 3: // sent by the group call
				default:
					mreqs = append(mreqs, r.Isend(s.send.Addr(), rigSizes[s.k], s.peer, s.k))
				}
			}
			h.GroupCall(g)
			if me%2 == 1 {
				r.Compute(30 * sim.Microsecond)
			}
			for _, s := range slots {
				switch s.k {
				case 2:
					oreqs = append(oreqs, h.RecvOffload(s.recv.Addr(), rigSizes[2], s.peer, 2))
				case 3:
				default:
					mreqs = append(mreqs, r.Irecv(s.recv.Addr(), rigSizes[s.k], s.peer, s.k))
				}
			}
			h.WaitAll(oreqs...)
			h.GroupWait(g)
			r.WaitAll(mreqs...)
			for _, s := range slots {
				if !bytes.Equal(s.recv.Bytes(), rigPattern(s.peer, me, s.k, it)) {
					t.Errorf("iteration %d: rank %d holds the wrong bytes from rank %d (kind %d)", it, me, s.peer, s.k)
				}
				run.got[me] = append(run.got[me], s.recv.Bytes()...)
			}
			r.Barrier()
		}
		run.end[me] = r.Now()
	})
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		t.Fatalf("%d processes deadlocked", len(cl.K.Deadlocked))
	}
	fw.Stop()
	cl.K.Run()
	return run
}

// Recycled records must never leak one message's bytes into another: every
// receive of the rig holds its sender's pattern, on either design. A
// zero-rate fault plan takes the same path with nothing injected, so it must
// reproduce the no-plan bytes and virtual times exactly; a plan that drops,
// corrupts and fails packets, and one that adds a proxy crash, must still
// deliver the same bytes.
func TestRecycledRecordsKeepPayloads(t *testing.T) {
	keepPayloads(t, DefaultConfig())
	t.Run("staged", func(t *testing.T) { keepPayloads(t, stagedConfig()) })
}

func keepPayloads(t *testing.T, cfg Config) {
	bare := runRig(t, cfg, nil)
	for _, pc := range rigPlans()[1:] {
		run := runRig(t, cfg, pc.plan)
		st := run.cl.Inj.Stats
		switch pc.name {
		case "zero rate":
			for i := range bare.got {
				if bare.end[i] != run.end[i] {
					t.Errorf("rank %d: a zero-rate plan changed the run (finish %v vs %v)", i, bare.end[i], run.end[i])
				}
			}
		case "lossy":
			if st.Drops == 0 || st.Corrupts == 0 || st.CQErrors == 0 {
				t.Fatalf("%s: the plan did not inject every fault it names: %+v", pc.name, st)
			}
		case "faults":
			if st.Drops == 0 || st.Corrupts == 0 || st.Delays == 0 || st.CQErrors == 0 || run.fw.Stats().Failovers == 0 {
				t.Fatalf("%s: the plan did not inject every fault it names, or no host failed over: %+v", pc.name, st)
			}
		}
		for i := range bare.got {
			if !bytes.Equal(bare.got[i], run.got[i]) {
				t.Errorf("%s: rank %d: bytes differ", pc.name, i)
			}
		}
	}
}

// distinct fails the test if list holds a pointer twice and returns the set.
func distinct[T comparable](t *testing.T, name string, list []T) map[T]bool {
	t.Helper()
	seen := make(map[T]bool, len(list))
	for _, x := range list {
		if seen[x] {
			t.Errorf("%s free list holds %v twice", name, x)
		}
		seen[x] = true
	}
	return seen
}

// After the rig drains, every free list of the p2p and group paths holds
// each record at most once and none that is still queued: the proxies'
// RTS/RTR queues and matched pairs, the transfer records and staging
// leases, FINs, delivery notifications, group replays, completions and
// failures, gathered metadata, the request handles WaitAll released, and
// the packets themselves — on either design and under every rig plan, where
// records recycle just the same. One-sided requests drained by WaitAll, as
// shmem's Quiet drains them, are released exactly once too.
func TestRecycledRecordsNoDoubleFree(t *testing.T) {
	for _, pc := range rigPlans() {
		t.Run(pc.name, func(t *testing.T) { checkRigFreeLists(t, runRig(t, DefaultConfig(), pc.plan)) })
	}
	t.Run("staged", func(t *testing.T) {
		for _, pc := range rigPlans() {
			t.Run(pc.name, func(t *testing.T) { checkRigFreeLists(t, runRig(t, stagedConfig(), pc.plan)) })
		}
	})
	t.Run("one-sided", func(t *testing.T) {
		for _, pc := range rigPlans() {
			t.Run(pc.name, func(t *testing.T) { oneSidedQuiet(t, pc.plan) })
		}
	})
}

// oneSidedQuiet runs two hosts on two nodes that, for three rounds, each put
// slot 0 of their window into slot 2 of the peer's and get slot 1 of the
// peer's into their own slot 3, then drain both requests with one WaitAll.
// Every request handle the hosts were handed is back on the free list
// exactly once, the windows hold the peer's bytes, and no request is
// outstanding; under rigFaults, requests reissued after the proxy crash
// included.
func oneSidedQuiet(t *testing.T, plan *fault.Config) {
	const size = 8 << 10
	handed := map[*OffloadRequest]bool{}
	fw, bufs := windowPair(t, plan, 4*size, 2*size, func(h *Host, wins [2]Window) {
		me := h.Rank()
		peer := 1 - me
		var pending []*OffloadRequest
		for range 3 {
			pending = append(pending,
				h.PutOffload(wins[me], 0, wins[peer], 2*size, size),
				h.GetOffload(wins[me], 3*size, wins[peer], size, size))
			for _, q := range pending {
				handed[q] = true
			}
			h.WaitAll(pending...)
			clear(pending)
			pending = pending[:0]
		}
	})
	for me := range bufs {
		peer := pattern(byte(10*(1-me)), 2*size)
		if !bytes.Equal(bufs[me][2*size:], peer) {
			t.Errorf("rank %d's window does not hold rank %d's put and get", me, 1-me)
		}
	}
	reqs := free(t, "offload request", &fw.offReqFree)
	if len(reqs) != len(handed) {
		t.Errorf("%d request handles on the free list, want the %d handed out", len(reqs), len(handed))
	}
	for q := range handed {
		if !reqs[q] {
			t.Error("a request handle WaitAll returned is not on the free list")
		}
	}
	for q := range reqs {
		if *q != (OffloadRequest{}) {
			t.Errorf("a released request handle still holds request %d", q.id)
		}
	}
	free(t, "request record", &fw.reqFree)
	if plan != nil && len(plan.Crashes) > 0 && fw.Stats().OneSidedReissues == 0 {
		t.Error("the proxy crash reissued no one-sided request")
	}
	for _, h := range fw.hosts {
		if len(h.reqs) != 0 {
			t.Errorf("rank %d: %d requests outstanding", h.rank, len(h.reqs))
		}
	}
	fw.Retire()
}

// free returns the records on l, failing t if one is on it twice.
func free[T any](t *testing.T, name string, l *pool.List[T]) map[*T]bool {
	t.Helper()
	set, ok := l.Free()
	if !ok {
		t.Errorf("%s free list holds a record twice", name)
	}
	return set
}

func checkRigFreeLists(t *testing.T, run rigRun) {
	fw := run.fw
	rts := free(t, "rts", &fw.rtsFree)
	rtr := free(t, "rtr", &fw.rtrFree)
	fin := free(t, "fin", &fw.finFree)
	free(t, "dlv", &fw.dlvFree)
	free(t, "greplay", &fw.greplayFree)
	gdone := free(t, "gdone", &fw.gdoneFree)
	free(t, "gfail", &fw.gfailFree)
	gmeta := free(t, "gmeta", &fw.gmetaFree)
	reqs := free(t, "offload request", &fw.offReqFree)
	if len(rts) == 0 || len(rtr) == 0 || len(fin) == 0 || len(gdone) == 0 || len(reqs) == 0 {
		t.Fatalf("nothing recycled: %d rts, %d rtr, %d fin, %d gdone, %d requests", len(rts), len(rtr), len(fin), len(gdone), len(reqs))
	}
	for q := range reqs {
		if *q != (OffloadRequest{}) {
			t.Errorf("a released request handle still holds request %d", q.id)
		}
	}
	staged := fw.cfg.Path == datapath.KindStaged
	if staged && len(gmeta) == 0 {
		t.Fatal("no gathered metadata was recycled")
	}
	for _, h := range fw.hosts {
		for _, m := range h.gmetaQ[:cap(h.gmetaQ)] {
			if gmeta[m] {
				t.Errorf("host %d: the gather queue holds a recycled record", h.rank)
			}
		}
	}
	var stages []*datapath.Stage
	for _, px := range fw.proxies {
		for _, q := range px.sendQ {
			for _, m := range q {
				if rts[m] {
					t.Errorf("proxy %d: a queued RTS is on the free list", px.global)
				}
			}
		}
		for _, q := range px.recvQ {
			for _, m := range q {
				if rtr[m] {
					t.Errorf("proxy %d: a queued RTR is on the free list", px.global)
				}
			}
		}
		for _, pr := range px.combined {
			if rts[pr.rts] || rtr[pr.rtr] {
				t.Errorf("proxy %d: a matched pair is on the free list", px.global)
			}
		}
		for _, leases := range px.stagePool {
			stages = append(stages, leases...)
		}
	}
	for x := range free(t, "transfer", &fw.xferFree) {
		if x.pr != (pairMsg{}) || x.ts != 0 {
			t.Errorf("proxy %d: a free transfer record is still bound to a pair", x.px.global)
		}
	}
	distinct(t, "stage lease", stages)
	if staged && len(stages) == 0 {
		t.Fatal("no staging lease was returned")
	}

	// The packet pool is verbs-private: drain it through GetPacket. Fresh
	// packets are distinct, so a pointer seen twice was put twice. The rig
	// sends far fewer packets than the drain takes.
	pkts := make([]*verbs.Packet, 1<<14)
	for i := range pkts {
		pkts[i] = run.cl.Reg.GetPacket()
	}
	distinct(t, "packet", pkts)
}
