package core

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
)

// roundAllocs runs a round on both hosts of a started two-node framework
// once per period of virtual time and returns the allocations of one warm
// round — every layer, both proxies. prepare runs once per host, in its
// process, and returns the host's round.
func roundAllocs(t *testing.T, cfg Config, plan *fault.Config, prepare func(h *Host) func()) (float64, *Framework) {
	t.Helper()
	const period = 500 * sim.Microsecond
	ccfg := cluster.DefaultConfig(2, 1)
	ccfg.Fault = plan
	cl := cluster.New(ccfg)
	sites := make([]*cluster.Site, ccfg.NP())
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), fmt.Sprintf("host%d", i))
	}
	fw := New(cl, cfg, sites)
	fw.Start()
	rounds := 0
	for i := 0; i < ccfg.NP(); i++ {
		h := fw.Host(i)
		cl.K.Spawn(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			h.Bind(p)
			round := prepare(h)
			for n := sim.Time(1); n <= 4+2*20+1; n++ { // to the last measured period
				round()
				if h.Rank() == 0 {
					rounds++
				}
				p.Sleep(n*period - p.Now())
			}
		})
	}
	cl.K.RunUntil(4 * period) // warm the pools and buffers
	before := rounds
	// The total of 20 rounds over 20, not AllocsPerRun's floored mean per
	// round, so a cost spread over many rounds — a growing map — shows too.
	allocs := testing.AllocsPerRun(1, func() { cl.K.RunUntil(cl.K.Now() + 20*period) }) / 20
	if rounds-before != 40 { // AllocsPerRun runs f once more, to warm up
		t.Fatalf("%d rounds in 40 periods, want one per period", rounds-before)
	}
	fw.Stop()
	cl.K.Shutdown()
	return allocs, fw
}

// budgetPlans are the plans every budget holds under: none, and a crash plan
// whose only crash never comes, so the delivery counters are written into
// host memory and counted by the hosts' counter handlers.
func budgetPlans() []rigPlan {
	crash := fault.DefaultConfig(1)
	crash.Crashes = []fault.Crash{{Proxy: 0, At: 1 << 60}}
	return []rigPlan{{"no plan", nil}, {"crash plan", crash}}
}

// groupAllocs runs rank 0 → rank 1 group requests of the given number of
// sends, one call per round, and returns the allocations of one warm call —
// everything from the hosts' GroupCall to their GroupWait returning.
func groupAllocs(t *testing.T, cfg Config, plan *fault.Config, sends int) (float64, *Framework) {
	t.Helper()
	const size = 4096
	return roundAllocs(t, cfg, plan, func(h *Host) func() {
		buf := h.site.Space.Alloc(sends*size, false)
		g := h.GroupStart()
		for s := 0; s < sends; s++ {
			if h.Rank() == 0 {
				g.Send(buf.Addr()+mem.Addr(s*size), size, 1, 0)
			} else {
				g.Recv(buf.Addr()+mem.Addr(s*size), size, 0, 0)
			}
		}
		g.End()
		return func() {
			h.GroupCall(g)
			h.GroupWait(g)
		}
	})
}

// replayAllocs is groupAllocs on the proposed design, whose calls after the
// first are group-cache replays.
func replayAllocs(t *testing.T, plan *fault.Config, sends int) float64 {
	t.Helper()
	allocs, fw := groupAllocs(t, DefaultConfig(), plan, sends)
	var hits int64
	for i := 0; i < len(fw.proxies); i++ {
		hits += fw.Proxy(i).GroupHits
	}
	if hits < 2*40 {
		t.Fatalf("%d sends: %d group-cache hits, want replays only", sends, hits)
	}
	return allocs
}

// A warm replayed group call allocates nothing in any layer: its sends —
// posted from the entry queue, landed, their delivery notifications posted,
// carried and counted exactly once for the destination host — and the
// replay request and completion update of each side are all recycled. A
// crash plan changes only where the notifications are counted.
func TestGroupReplaySendAllocFree(t *testing.T) {
	for _, pc := range budgetPlans() {
		few, many := replayAllocs(t, pc.plan, 4), replayAllocs(t, pc.plan, 64)
		if many != few {
			t.Errorf("%s: a replayed call of 64 sends allocates %.1f objects, one of 4 sends %.1f: %.3f per send, want 0",
				pc.name, many, few, (many-few)/60)
		}
		if few != 0 {
			t.Errorf("%s: a replayed call allocates %.1f objects beside its sends, want 0", pc.name, few)
		}
	}
}

// A warm group call with no group cache on the staged datapath (the BluesMPI
// design minus its warm-up penalty) re-gathers and re-installs the whole
// pattern, but nothing per send: a call of 64 sends allocates exactly what a
// call of 4 does. Each send's metadata is recycled after the gather, and its
// read and write ride the staging lease it holds.
func TestUncachedStagedGroupCallAllocFree(t *testing.T) {
	few, _ := groupAllocs(t, stagedConfig(), nil, 4)
	many, fw := groupAllocs(t, stagedConfig(), nil, 64)
	if many != few {
		t.Fatalf("an uncached staged call of 64 sends allocates %.1f objects, one of 4 sends %.1f: %.3f per send, want 0",
			many, few, (many-few)/60)
	}
	var misses, staged int64
	for _, px := range fw.proxies {
		misses += px.GroupMiss
		staged += px.StagedOps
	}
	if misses < 2*40 || staged < 64*40 {
		t.Fatalf("%d group installs and %d staged sends, want one install per host and call, every send staged", misses, staged)
	}
}

// A warm Send_Offload/Recv_Offload pair through started proxies allocates
// nothing, on either proxy datapath and under a crash plan too: the
// OffloadRequests handed to the callers go back to their free list when
// Wait returns, and the hosts' request records, the RTS/RTR/FIN payloads
// and packets, the proxy's transfer record, the RDMA operations and, on the
// staged path, the transfer's state (kept in its staging lease) are all
// recycled.
func TestBasicPrimitivePairAllocFree(t *testing.T) {
	const size = 4096
	for _, pc := range budgetPlans() {
		for _, path := range []datapath.Kind{datapath.KindCrossGVMI, datapath.KindStaged} {
			allocs, _ := roundAllocs(t, DefaultConfig(), pc.plan, func(h *Host) func() {
				buf := h.site.Space.Alloc(size, true)
				return func() {
					if h.Rank() == 0 {
						h.Wait(h.SendOffloadVia(path, buf.Addr(), size, 1, 3))
					} else {
						h.Wait(h.RecvOffload(buf.Addr(), size, 0, 3))
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s: a warm offloaded %v pair allocates %.1f objects, want 0", pc.name, path, allocs)
			}
		}
	}
}

// TestWireOpSize keeps a Group_op entry within 48 bytes, under the 64 the
// model charges for one on the wire (groupOpWireSize): an install holds one
// per (rank, peer) pair, on the host and on its proxy.
func TestWireOpSize(t *testing.T) {
	if n := unsafe.Sizeof(wireOp{}); n > 48 {
		t.Errorf("wireOp is %d bytes, want at most 48", n)
	}
}
