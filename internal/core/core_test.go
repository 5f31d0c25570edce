package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/span"
)

// runFw builds a cluster, starts the framework, and runs main on one
// simulated process per host rank.
func runFw(t *testing.T, nodes, ppn int, cfg Config, main func(h *Host)) *Framework {
	t.Helper()
	ccfg := cluster.DefaultConfig(nodes, ppn)
	cl := cluster.New(ccfg)
	sites := make([]*cluster.Site, ccfg.NP())
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), fmt.Sprintf("host%d", i))
	}
	fw := New(cl, cfg, sites)
	fw.Start()
	for i := 0; i < ccfg.NP(); i++ {
		h := fw.Host(i)
		cl.K.Spawn(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			h.Bind(p)
			main(h)
		})
	}
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		var names []string
		for _, p := range cl.K.Deadlocked {
			names = append(names, p.Name())
		}
		t.Fatalf("deadlocked: %v", names)
	}
	return fw
}

func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*3)
	}
	return b
}

func TestBasicSendRecvGVMI(t *testing.T) {
	const size = 64 << 10
	runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		switch h.Rank() {
		case 0:
			copy(buf.Bytes(), pattern(7, size))
			h.Wait(h.SendOffload(buf.Addr(), size, 1, 5))
		case 1:
			h.Wait(h.RecvOffload(buf.Addr(), size, 0, 5))
			if !bytes.Equal(buf.Bytes(), pattern(7, size)) {
				t.Error("GVMI offload corrupted payload")
			}
		}
	})
}

func TestBasicSendRecvStaging(t *testing.T) {
	const size = 64 << 10
	cfg := DefaultConfig()
	cfg.Path = datapath.KindStaged
	fw := runFw(t, 2, 1, cfg, func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		switch h.Rank() {
		case 0:
			copy(buf.Bytes(), pattern(9, size))
			h.Wait(h.SendOffload(buf.Addr(), size, 1, 0))
		case 1:
			h.Wait(h.RecvOffload(buf.Addr(), size, 0, 0))
			if !bytes.Equal(buf.Bytes(), pattern(9, size)) {
				t.Error("staged offload corrupted payload")
			}
		}
	})
	var staged int64
	for i := 0; i < len(fw.proxies); i++ {
		staged += fw.Proxy(i).StagedOps
	}
	if staged != 1 {
		t.Fatalf("StagedOps = %d, want 1", staged)
	}
}

func TestRTRBeforeRTS(t *testing.T) {
	// The receiver posts long before the sender: the proxy must queue the
	// RTR and match it when the RTS arrives (Figure 8's queues).
	const size = 4096
	runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		switch h.Rank() {
		case 0:
			h.Proc().AdvanceBusy(500 * sim.Microsecond)
			copy(buf.Bytes(), pattern(1, size))
			h.Wait(h.SendOffload(buf.Addr(), size, 1, 2))
		case 1:
			h.Wait(h.RecvOffload(buf.Addr(), size, 0, 2))
			if buf.Bytes()[100] != pattern(1, size)[100] {
				t.Error("payload wrong")
			}
		}
	})
}

func TestMultipleOutstandingSameTag(t *testing.T) {
	// FIFO pairing of equal (src,dst,tag) transfers.
	const size, n = 2048, 4
	runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		bufs := make([][]byte, n)
		var reqs []*OffloadRequest
		for i := 0; i < n; i++ {
			b := h.site.Space.Alloc(size, true)
			bufs[i] = b.Bytes()
			if h.Rank() == 0 {
				copy(b.Bytes(), pattern(byte(10*i), size))
				reqs = append(reqs, h.SendOffload(b.Addr(), size, 1, 0))
			} else {
				reqs = append(reqs, h.RecvOffload(b.Addr(), size, 0, 0))
			}
		}
		h.WaitAll(reqs...)
		if h.Rank() == 1 {
			for i := 0; i < n; i++ {
				if !bytes.Equal(bufs[i], pattern(byte(10*i), size)) {
					t.Errorf("transfer %d out of order or corrupted", i)
				}
			}
		}
	})
}

func TestPerfectOverlapBasic(t *testing.T) {
	// The transfer must complete while the destination host computes:
	// Wait() after a long compute returns (nearly) immediately.
	const size = 1 << 20
	const compute = 5 * sim.Millisecond
	var waitTime sim.Time
	runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		switch h.Rank() {
		case 0:
			h.Wait(h.SendOffload(buf.Addr(), size, 1, 0))
		case 1:
			q := h.RecvOffload(buf.Addr(), size, 0, 0)
			h.Proc().AdvanceBusy(compute)
			t0 := h.Proc().Now()
			h.Wait(q)
			waitTime = h.Proc().Now() - t0
		}
	})
	if waitTime > 50*sim.Microsecond {
		t.Fatalf("Wait blocked %v after compute; offload should have completed in the background", waitTime)
	}
}

func TestRegistrationCachesAmortize(t *testing.T) {
	const size, iters = 128 << 10, 6
	fw := runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		for it := 0; it < iters; it++ {
			if h.Rank() == 0 {
				h.Wait(h.SendOffload(buf.Addr(), size, 1, it))
			} else {
				h.Wait(h.RecvOffload(buf.Addr(), size, 0, it))
			}
		}
	})
	g := fw.Cluster().GVMI
	if g.HostRegs != 1 || g.CrossRegs != 1 {
		t.Fatalf("GVMI regs host=%d cross=%d, want 1/1 (caches must amortize)", g.HostRegs, g.CrossRegs)
	}
}

func TestRegistrationWithoutCaches(t *testing.T) {
	const size, iters = 128 << 10, 4
	cfg := DefaultConfig()
	cfg.RegCaches = false
	fw := runFw(t, 2, 1, cfg, func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		for it := 0; it < iters; it++ {
			if h.Rank() == 0 {
				h.Wait(h.SendOffload(buf.Addr(), size, 1, it))
			} else {
				h.Wait(h.RecvOffload(buf.Addr(), size, 0, it))
			}
		}
	})
	g := fw.Cluster().GVMI
	if g.HostRegs != iters || g.CrossRegs != iters {
		t.Fatalf("GVMI regs host=%d cross=%d, want %d each", g.HostRegs, g.CrossRegs, iters)
	}
}

// ringBcast offloads a full ring broadcast with the Group primitives
// (Listing 5) and returns the wait time after the given compute.
func ringBcast(t *testing.T, nodes, ppn int, cfg Config, size int, compute sim.Time) ([]sim.Time, *Framework) {
	np := nodes * ppn
	waits := make([]sim.Time, np)
	fw := runFw(t, nodes, ppn, cfg, func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		me := h.Rank()
		left := (me - 1 + np) % np
		right := (me + 1) % np
		g := h.GroupStart()
		if me == 0 {
			copy(buf.Bytes(), pattern(42, size))
			g.Send(buf.Addr(), size, right, 4)
			g.LocalBarrier()
		} else {
			g.Recv(buf.Addr(), size, left, 4)
			g.LocalBarrier()
			if right != 0 {
				g.Send(buf.Addr(), size, right, 4)
			}
		}
		g.End()
		h.GroupCall(g)
		h.Proc().AdvanceBusy(compute)
		t0 := h.Proc().Now()
		h.GroupWait(g)
		waits[me] = h.Proc().Now() - t0
		if me != 0 && !bytes.Equal(buf.Bytes(), pattern(42, size)) {
			t.Errorf("rank %d: ring bcast payload corrupted", me)
		}
	})
	return waits, fw
}

func TestGroupRingBcastOverlap(t *testing.T) {
	// A 8-rank ring with data dependencies progresses entirely on the DPUs
	// while every host computes — the paper's Figure 1 case (3).
	const size = 64 << 10
	const compute = 20 * sim.Millisecond
	waits, _ := ringBcast(t, 4, 2, DefaultConfig(), size, compute)
	for rank, wt := range waits {
		if wt > 100*sim.Microsecond {
			t.Errorf("rank %d waited %v after compute; ring did not progress on DPUs", rank, wt)
		}
	}
}

func TestGroupRingBcastStaging(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Path = datapath.KindStaged
	waits, fw := ringBcast(t, 3, 1, cfg, 32<<10, 10*sim.Millisecond)
	for rank, wt := range waits {
		if wt > 100*sim.Microsecond {
			t.Errorf("rank %d waited %v; staged ring should still overlap", rank, wt)
		}
	}
	var staged int64
	for i := 0; i < len(fw.proxies); i++ {
		staged += fw.Proxy(i).StagedOps
	}
	if staged != 2 { // two forwarding sends in a 3-rank ring
		t.Errorf("StagedOps = %d, want 2", staged)
	}
}

func TestGroupOrderingWithoutComputeStillCorrect(t *testing.T) {
	// No compute at all: GroupWait immediately after GroupCall.
	waits, _ := ringBcast(t, 2, 2, DefaultConfig(), 8<<10, 0)
	_ = waits
}

func TestGroupSingleProxyBothEnds(t *testing.T) {
	// With 1 proxy per DPU and 2 ranks per node, one proxy serves both ends
	// of a dependency chain; Algorithm 1's return-to-progress-engine must
	// prevent deadlock.
	ccfg := cluster.DefaultConfig(1, 4)
	ccfg.ProxiesPerDPU = 1
	cl := cluster.New(ccfg)
	sites := make([]*cluster.Site, ccfg.NP())
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), fmt.Sprintf("host%d", i))
	}
	fw := New(cl, DefaultConfig(), sites)
	fw.Start()
	const size = 4 << 10
	np := ccfg.NP()
	for i := 0; i < np; i++ {
		h := fw.Host(i)
		cl.K.Spawn(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			h.Bind(p)
			buf := h.site.Space.Alloc(size, true)
			me := h.Rank()
			g := h.GroupStart()
			if me == 0 {
				copy(buf.Bytes(), pattern(3, size))
				g.Send(buf.Addr(), size, 1, 0)
			} else {
				g.Recv(buf.Addr(), size, me-1, 0)
				g.LocalBarrier()
				if me+1 < np {
					g.Send(buf.Addr(), size, me+1, 0)
				}
			}
			g.End()
			h.GroupCall(g)
			h.GroupWait(g)
			if me > 0 && !bytes.Equal(buf.Bytes(), pattern(3, size)) {
				t.Errorf("rank %d: chain payload corrupted", me)
			}
		})
	}
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		t.Fatal("single-proxy dependency chain deadlocked")
	}
}

func TestGroupReplayCacheHit(t *testing.T) {
	// Re-calling a group request must (a) ship only the request ID,
	// (b) still move fresh data, and (c) count as a DPU cache hit.
	const size, iters = 32 << 10, 5
	var fw *Framework
	fw = runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		g := h.GroupStart()
		if h.Rank() == 0 {
			g.Send(buf.Addr(), size, 1, 0)
		} else {
			g.Recv(buf.Addr(), size, 0, 0)
		}
		g.End()
		for it := 0; it < iters; it++ {
			if h.Rank() == 0 {
				copy(buf.Bytes(), pattern(byte(it*11), size))
			}
			h.GroupCall(g)
			h.GroupWait(g)
			if h.Rank() == 1 && !bytes.Equal(buf.Bytes(), pattern(byte(it*11), size)) {
				t.Errorf("iteration %d: replay delivered stale data", it)
			}
		}
	})
	var hits, misses int64
	for i := 0; i < len(fw.proxies); i++ {
		hits += fw.Proxy(i).GroupHits
		misses += fw.Proxy(i).GroupMiss
	}
	if misses != 2 || hits != int64(2*(iters-1)) {
		t.Fatalf("group cache hits=%d misses=%d, want %d/2", hits, misses, 2*(iters-1))
	}
	// Cross-registration must have happened once per send entry.
	if fw.Cluster().GVMI.CrossRegs != 1 {
		t.Fatalf("CrossRegs = %d, want 1", fw.Cluster().GVMI.CrossRegs)
	}
}

func TestGroupCacheDisabledResends(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GroupCache = false
	const size, iters = 8 << 10, 3
	fw := runFw(t, 2, 1, cfg, func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		g := h.GroupStart()
		if h.Rank() == 0 {
			g.Send(buf.Addr(), size, 1, 0)
		} else {
			g.Recv(buf.Addr(), size, 0, 0)
		}
		g.End()
		for it := 0; it < iters; it++ {
			h.GroupCall(g)
			h.GroupWait(g)
		}
	})
	var hits, misses int64
	for i := 0; i < len(fw.proxies); i++ {
		hits += fw.Proxy(i).GroupHits
		misses += fw.Proxy(i).GroupMiss
	}
	if hits != 0 || misses != int64(2*iters) {
		t.Fatalf("cache disabled: hits=%d misses=%d, want 0/%d", hits, misses, 2*iters)
	}
}

func TestGroupAlltoallPattern(t *testing.T) {
	// Full personalized exchange recorded as one group per rank.
	const per = 4 << 10
	runFw(t, 2, 2, DefaultConfig(), func(h *Host) {
		np := 4
		me := h.Rank()
		send := h.site.Space.Alloc(np*per, true)
		recv := h.site.Space.Alloc(np*per, true)
		for dst := 0; dst < np; dst++ {
			copy(send.Bytes()[dst*per:(dst+1)*per], pattern(byte(me*16+dst), per))
		}
		g := h.GroupStart()
		for i := 1; i < np; i++ {
			src := (me - i + np) % np
			g.Recv(recv.Addr()+memAddr(src*per), per, src, 0)
		}
		for i := 1; i < np; i++ {
			dst := (me + i) % np
			g.Send(send.Addr()+memAddr(dst*per), per, dst, 0)
		}
		g.End()
		h.GroupCall(g)
		h.GroupWait(g)
		for src := 0; src < np; src++ {
			if src == me {
				continue
			}
			if !bytes.Equal(recv.Bytes()[src*per:(src+1)*per], pattern(byte(src*16+me), per)) {
				t.Errorf("rank %d: block from %d corrupted", me, src)
			}
		}
	})
}

func TestWarmupCostChargedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupPerOp = 2 * sim.Millisecond
	cfg.WarmupCalls = 1
	const size = 8 << 10
	durations := make([]sim.Time, 3)
	runFw(t, 2, 1, cfg, func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		g := h.GroupStart()
		if h.Rank() == 0 {
			g.Send(buf.Addr(), size, 1, 0)
		} else {
			g.Recv(buf.Addr(), size, 0, 0)
		}
		g.End()
		for it := 0; it < 3; it++ {
			t0 := h.Proc().Now()
			h.GroupCall(g)
			h.GroupWait(g)
			if h.Rank() == 0 {
				durations[it] = h.Proc().Now() - t0
			}
		}
	})
	if durations[0] < cfg.WarmupPerOp {
		t.Fatalf("first call %v did not include warm-up %v", durations[0], cfg.WarmupPerOp)
	}
	if durations[1] >= cfg.WarmupPerOp || durations[2] >= cfg.WarmupPerOp {
		t.Fatalf("warm-up charged beyond WarmupCalls: %v", durations)
	}
}

func TestTwoConcurrentGroupRequests(t *testing.T) {
	// Two in-flight group exchanges with different tags and buffers (the
	// P3DFFT double-Ialltoall pattern) must complete independently and
	// deliver the right data.
	const size = 16 << 10
	runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		a := h.site.Space.Alloc(size, true)
		b := h.site.Space.Alloc(size, true)
		me := h.Rank()
		peer := 1 - me
		ga, gb := h.GroupStart(), h.GroupStart()
		if me == 0 {
			copy(a.Bytes(), pattern(1, size))
			copy(b.Bytes(), pattern(2, size))
			ga.Send(a.Addr(), size, peer, 10)
			gb.Send(b.Addr(), size, peer, 20)
		} else {
			ga.Recv(a.Addr(), size, peer, 10)
			gb.Recv(b.Addr(), size, peer, 20)
		}
		ga.End()
		gb.End()
		h.GroupCall(ga)
		h.GroupCall(gb)
		h.GroupWait(gb)
		h.GroupWait(ga)
		if me == 1 {
			if !bytes.Equal(a.Bytes(), pattern(1, size)) || !bytes.Equal(b.Bytes(), pattern(2, size)) {
				t.Error("concurrent group requests mixed up payloads")
			}
		}
	})
}

func TestProxyMappingModulo(t *testing.T) {
	ccfg := cluster.DefaultConfig(2, 8)
	ccfg.ProxiesPerDPU = 3
	cl := cluster.New(ccfg)
	sites := make([]*cluster.Site, ccfg.NP())
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), "h")
	}
	fw := New(cl, DefaultConfig(), sites)
	// host rank 5 on node 0 -> local 5 % 3 = proxy 2 on node 0
	if px := fw.proxyFor(5); px.node != 0 || px.local != 2 {
		t.Fatalf("proxyFor(5) = node %d local %d, want 0/2", px.node, px.local)
	}
	// host rank 12 -> node 1, local rank 4 -> proxy 1 on node 1 (global 4)
	if px := fw.proxyFor(12); px.node != 1 || px.local != 1 {
		t.Fatalf("proxyFor(12) = node %d local %d, want 1/1", px.node, px.local)
	}
}

// memAddr converts an int offset for address arithmetic in tests.
func memAddr(i int) mem.Addr { return mem.Addr(i) }

func TestStatsAggregation(t *testing.T) {
	const size, iters = 64 << 10, 3
	fw := runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(size, true)
		g := h.GroupStart()
		if h.Rank() == 0 {
			g.Send(buf.Addr(), size, 1, 0)
		} else {
			g.Recv(buf.Addr(), size, 0, 0)
		}
		g.End()
		for it := 0; it < iters; it++ {
			h.GroupCall(g)
			h.GroupWait(g)
		}
	})
	s := fw.Stats()
	if s.RDMAWrites != iters {
		t.Fatalf("RDMAWrites = %d, want %d", s.RDMAWrites, iters)
	}
	if s.StagedOps != 0 || s.RDMAReads != 0 {
		t.Fatal("GVMI mechanism must not stage")
	}
	if s.GroupMisses != 2 || s.GroupHits != 2*(iters-1) {
		t.Fatalf("group cache stats: %d/%d", s.GroupHits, s.GroupMisses)
	}
	if s.CtrlMsgs == 0 {
		t.Fatal("no control messages counted")
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
}

// The reliability block prints when any of its six counters is nonzero, and
// only then: a run whose only recovery was a one-sided re-issue reports it.
func TestStatsStringReliabilityBlock(t *testing.T) {
	for _, c := range []struct {
		s    Stats
		want string // "" = no reliability block
	}{
		{Stats{CtrlMsgs: 7, RDMAWrites: 3}, ""},
		{Stats{Failovers: 1}, "failovers=1 "},
		{Stats{FallbackGroupCalls: 2}, "fbcalls=2 "},
		{Stats{FallbackWrites: 3}, "fbwrites=3 "},
		{Stats{FoEagerSends: 4}, "fosends=4 "},
		{Stats{OneSidedReissues: 5}, "1s-reissues=5 "},
		{Stats{DlvDeduped: 6}, "dlv-dedup=6"},
	} {
		out := c.s.String()
		if block := strings.Contains(out, "failovers="); block != (c.want != "") || !strings.Contains(out, c.want) {
			t.Errorf("renders %q, want a reliability block with %q", out, c.want)
		}
	}
}

func TestGroupMisusePanics(t *testing.T) {
	runFw(t, 1, 1, DefaultConfig(), func(h *Host) {
		g := h.GroupStart()
		buf := h.site.Space.Alloc(64, true)
		g.Send(buf.Addr(), 64, 0, 0)

		func() {
			defer func() {
				if recover() == nil {
					t.Error("GroupCall before End must panic")
				}
			}()
			h.GroupCall(g)
		}()

		g.End()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("recording after End must panic")
				}
			}()
			g.Send(buf.Addr(), 64, 0, 0)
		}()
	})
}

// Host-direct and DSA are per-call degradations; a framework whose default
// is either (or garbage) is a misconfiguration New refuses.
func TestNewRejectsNonDefaultPath(t *testing.T) {
	for _, k := range []datapath.Kind{datapath.KindHostDirect, datapath.KindDSA, datapath.Kind(7)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted default path %v", k)
				}
			}()
			cl := cluster.New(cluster.DefaultConfig(1, 1))
			cfg := DefaultConfig()
			cfg.Path = k
			New(cl, cfg, []*cluster.Site{cl.NewHostSite(0, "a")})
		}()
	}
}

func TestGroupSizeMismatchPanics(t *testing.T) {
	ccfg := cluster.DefaultConfig(2, 1)
	cl := cluster.New(ccfg)
	sites := []*cluster.Site{cl.NewHostSite(0, "a"), cl.NewHostSite(1, "b")}
	fw := New(cl, DefaultConfig(), sites)
	fw.Start()
	panicked := false
	for i := 0; i < 2; i++ {
		h := fw.Host(i)
		cl.K.Spawn("h", func(p *sim.Proc) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			h.Bind(p)
			buf := sites[h.Rank()].Space.Alloc(1024, true)
			g := h.GroupStart()
			if h.Rank() == 0 {
				g.Send(buf.Addr(), 1024, 1, 0)
			} else {
				g.Recv(buf.Addr(), 512, 0, 0) // mismatched size
			}
			g.End()
			h.GroupCall(g)
			h.GroupWait(g)
		})
	}
	cl.K.Run()
	if !panicked {
		t.Fatal("size mismatch between matched send and recv not detected")
	}
}

func TestFrameworkStopUnblocksProxies(t *testing.T) {
	fw := runFw(t, 2, 1, DefaultConfig(), func(h *Host) {
		buf := h.site.Space.Alloc(1024, true)
		if h.Rank() == 0 {
			h.Wait(h.SendOffload(buf.Addr(), 1024, 1, 0))
		} else {
			h.Wait(h.RecvOffload(buf.Addr(), 1024, 0, 0))
		}
	})
	cl := fw.Cluster()
	fw.Stop()
	cl.K.Run()
	if cl.K.Live() != 0 {
		t.Fatalf("%d proxies still live after Stop", cl.K.Live())
	}
}

// A basic send/recv pair leaves its whole protocol in the span record: the
// two host calls as roots, ended by their FINs; the proxy's transfer (fired
// once rts and rtr matched) under the send, with its cross-GVMI RDMA write —
// and the timeline view lists them.
func TestTraceRecordsProtocolEvents(t *testing.T) {
	ccfg := cluster.DefaultConfig(2, 1)
	sc := span.New(0)
	ccfg.Spans = sc
	cl := cluster.New(ccfg)
	sites := []*cluster.Site{cl.NewHostSite(0, "a"), cl.NewHostSite(1, "b")}
	fw := New(cl, DefaultConfig(), sites)
	fw.Start()
	for i := 0; i < 2; i++ {
		h := fw.Host(i)
		cl.K.Spawn("h", func(p *sim.Proc) {
			h.Bind(p)
			buf := sites[h.Rank()].Space.Alloc(4096, true)
			if h.Rank() == 0 {
				h.Wait(h.SendOffload(buf.Addr(), 4096, 1, 0))
			} else {
				h.Wait(h.RecvOffload(buf.Addr(), 4096, 0, 0))
			}
		})
	}
	cl.K.Run()
	fw.Retire()
	roots := map[string]span.ID{}
	for _, name := range []string{"send_offload", "recv_offload"} {
		ids := sc.RootsNamed("core", name)
		if len(ids) != 1 {
			t.Fatalf("%d core/%s roots, want 1", len(ids), name)
		}
		if s, _ := sc.Get(ids[0]); !s.Ended {
			t.Fatalf("core/%s never ended (no FIN reached the host)", name)
		}
		roots[name] = ids[0]
	}
	for _, s := range sc.Spans() {
		if s.Name == "transfer" && (s.Parent != roots["send_offload"] || s.Entity != "proxy0") {
			t.Fatalf("transfer span %+v is not proxy0's work under the send root %d", s, roots["send_offload"])
		}
	}
	var tl strings.Builder
	if err := sc.WriteTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"core.send_offload dst=1 size=4096 tag=0 path=gvmi", "core.recv_offload src=0 size=4096 tag=0",
		"core.transfer size=4096 mech=gvmi", "verbs.rdma_write size=4096", "fabric.wire size=4126",
	} {
		if !strings.Contains(tl.String(), want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl.String())
		}
	}
}
