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
