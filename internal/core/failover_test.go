package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
)

// A host whose proxy restarted while one of its groups was outstanding
// fails over before it installs another group: otherwise the restarted
// proxy would accept the new install and the host fallback would run that
// group too. Proxy 0 dies at 1 µs with rank 0's first group still unposted
// and restarts at 50 µs, while rank 0 computes; rank 0 then calls its
// second group for the first time. Both groups deliver, and proxy 0 never
// moves a byte.
func TestFailoverBeforeInstallingOnRestartedProxy(t *testing.T) {
	const size = 16 << 10
	ccfg := cluster.DefaultConfig(2, 1)
	ccfg.Fault = fault.DefaultConfig(1)
	ccfg.Fault.Crashes = []fault.Crash{{Proxy: 0, At: sim.Microsecond, RestartAfter: 49 * sim.Microsecond}}
	cl := cluster.New(ccfg)
	sites := []*cluster.Site{cl.NewHostSite(0, "host0"), cl.NewHostSite(1, "host1")}
	fw := New(cl, DefaultConfig(), sites)
	fw.Start()
	for i := range sites {
		h := fw.Host(i)
		cl.K.Spawn(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			h.Bind(p)
			peer := 1 - h.Rank()
			var gs [2]*GroupRequest
			var recv [2][]byte
			for k := range gs {
				send, r := h.site.Space.Alloc(size, true), h.site.Space.Alloc(size, true)
				copy(send.Bytes(), pattern(byte(10*h.Rank()+k), size))
				gs[k], recv[k] = h.GroupStart(), r.Bytes()
				gs[k].Recv(r.Addr(), size, peer, k)
				gs[k].Send(send.Addr(), size, peer, k)
				gs[k].End()
			}
			h.GroupCall(gs[0])
			p.AdvanceBusy(100 * sim.Microsecond)
			h.GroupCall(gs[1])
			h.GroupWait(gs[0])
			h.GroupWait(gs[1])
			for k := range gs {
				if !bytes.Equal(recv[k], pattern(byte(10*peer+k), size)) {
					t.Errorf("rank %d: group %d delivered the wrong bytes", h.Rank(), k)
				}
			}
		})
	}
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		t.Fatalf("%d processes deadlocked", len(cl.K.Deadlocked))
	}
	if st := fw.Stats(); st.Failovers != 1 || st.FallbackGroupCalls != 2 {
		t.Errorf("%d failovers, %d fallback calls; want rank 0 to fail over and run both its groups", st.Failovers, st.FallbackGroupCalls)
	}
	if w := fw.Proxy(0).RDMAWrites; w != 0 {
		t.Errorf("restarted proxy 0 posted %d RDMA writes for a host that had failed over", w)
	}
	fw.Retire()
}

// A proxy that dies with one-sided transfers in flight leaves them to their
// initiators: once the heartbeat times out, each host re-posts its request
// from its own NIC — the put as a write, the get as a read. Proxy 0 executes
// both, rank 0's put into rank 1's window and rank 1's get from rank 0's,
// and dies at 12 µs, with the first one's cross-registration under way and
// the second still queued, so it posts no write. Both payloads land, both
// requests are reissued, and each completes once: its record is recycled a
// single time.
func TestOneSidedReissuedAfterProxyCrash(t *testing.T) {
	const size = 16 << 10
	plan := fault.DefaultConfig(1)
	plan.Crashes = []fault.Crash{{Proxy: 0, At: 12 * sim.Microsecond}}
	fw, bufs := windowPair(t, plan, 2*size, 2*size, func(h *Host, wins [2]Window) {
		var req *OffloadRequest
		if h.Rank() == 0 {
			req = h.PutOffload(wins[0], 0, wins[1], 0, size) // rank 0's first half into rank 1's
		} else {
			req = h.GetOffload(wins[1], size, wins[0], size, size) // rank 0's second half into rank 1's
		}
		h.Wait(req)
	})
	if want := pattern(0, 2*size); !bytes.Equal(bufs[1], want) {
		t.Error("rank 1's window does not hold rank 0's put and get")
	}
	st := fw.Stats()
	if st.OneSidedReissues != 2 || st.RDMAWrites != 0 {
		t.Errorf("%d one-sided reissues and %d proxy writes, want the put and the get reissued and nothing written by the proxy", st.OneSidedReissues, st.RDMAWrites)
	}
	recs, ok := fw.reqFree.Free()
	if !ok || len(recs) != 2 {
		t.Errorf("%d request records recycled (each once: %v), want 2", len(recs), ok)
	}
	if handles, ok := fw.offReqFree.Free(); !ok || len(handles) != 2 {
		t.Errorf("%d request handles released (each once: %v), want 2", len(handles), ok)
	}
	for _, h := range fw.hosts {
		if len(h.reqs) != 0 {
			t.Errorf("rank %d: %d requests outstanding", h.rank, len(h.reqs))
		}
	}
	fw.Retire()
}

// windowPair runs body on both hosts of a framework on two nodes of one rank
// each, under plan, once each host has exposed a backed window of n bytes
// whose first fill bytes hold pattern(10 × its rank). It returns when the
// run drains, with the framework and the windows' bytes by rank.
func windowPair(t *testing.T, plan *fault.Config, n, fill int, body func(h *Host, wins [2]Window)) (*Framework, [2][]byte) {
	t.Helper()
	ccfg := cluster.DefaultConfig(2, 1)
	ccfg.Fault = plan
	cl := cluster.New(ccfg)
	sites := []*cluster.Site{cl.NewHostSite(0, "host0"), cl.NewHostSite(1, "host1")}
	fw := New(cl, DefaultConfig(), sites)
	fw.Start()
	var wins [2]Window
	var bufs [2][]byte
	exposed := 0
	var ready sim.Cond
	for i := range sites {
		h := fw.Host(i)
		cl.K.Spawn(fmt.Sprintf("host%d", i), func(p *sim.Proc) {
			h.Bind(p)
			me := h.Rank()
			buf := h.site.Space.Alloc(n, true)
			copy(buf.Bytes(), pattern(byte(10*me), fill))
			wins[me], bufs[me] = h.ExposeWindow(buf.Addr(), buf.Size()), buf.Bytes()
			exposed++
			ready.Broadcast()
			for exposed < 2 {
				ready.Wait(p)
			}
			body(h, wins)
		})
	}
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		t.Fatalf("%d processes deadlocked", len(cl.K.Deadlocked))
	}
	return fw, bufs
}
