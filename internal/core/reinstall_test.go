package core

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// backToBack runs a 4-rank all-to-all group request twice without a
// GroupWait in between and returns every rank's receive buffer and the
// virtual time its GroupWait returned at.
func backToBack(t *testing.T, cfg Config) (recv [][]byte, done []sim.Time, fw *Framework) {
	t.Helper()
	const np, per = 4, 256 << 10
	recv = make([][]byte, np)
	done = make([]sim.Time, np)
	fw = runFw(t, 2, 2, cfg, func(h *Host) {
		me := h.Rank()
		sb := h.site.Space.Alloc(np*per, true)
		rb := h.site.Space.Alloc(np*per, true)
		for dst := 0; dst < np; dst++ {
			copy(sb.Bytes()[dst*per:], pattern(byte(16*me+dst), per))
		}
		g := h.GroupStart()
		for i := 1; i < np; i++ {
			src := (me - i + np) % np
			g.Recv(rb.Addr()+mem.Addr(src*per), per, src, 0)
		}
		for i := 1; i < np; i++ {
			dst := (me + i) % np
			g.Send(sb.Addr()+mem.Addr(dst*per), per, dst, 0)
		}
		g.End()
		h.GroupCall(g)
		h.GroupCall(g)
		h.GroupWait(g)
		done[me] = h.Proc().Now()
		recv[me] = append([]byte(nil), rb.Bytes()...)
		for src := 0; src < np; src++ {
			if src != me && !bytes.Equal(recv[me][src*per:(src+1)*per], pattern(byte(16*src+me), per)) {
				t.Errorf("rank %d: block from %d corrupted", me, src)
			}
		}
	})
	return recv, done, fw
}

// TestGroupReinstallWhileRunning pins what a second full install does to a
// call that is still running: with the group cache off, the second of two
// back-to-back GroupCalls re-installs the request while the first call's
// writes are in flight. The per-entry completion handlers outlive the
// entries they were built beside, so the re-install must carry the same
// pattern (installGroup panics otherwise) and both calls must complete with
// the payload the cache-on run delivers, at the virtual times recorded
// before the handlers moved to install time.
func TestGroupReinstallWhileRunning(t *testing.T) {
	on, _, fwOn := backToBack(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.GroupCache = false
	off, done, fwOff := backToBack(t, cfg)

	for r := range on {
		if !bytes.Equal(on[r], off[r]) {
			t.Errorf("rank %d: cache-off payload differs from the cache-on run's", r)
		}
	}
	var missOn, missOff, hitsOn int64
	for i := 0; i < len(fwOn.proxies); i++ {
		missOn += fwOn.Proxy(i).GroupMiss
		hitsOn += fwOn.Proxy(i).GroupHits
		missOff += fwOff.Proxy(i).GroupMiss
	}
	if missOn != 4 || hitsOn != 4 || missOff != 8 {
		t.Errorf("installs/replays: cache on %d/%d, cache off %d/0; want 4/4 and 8/0", missOn, hitsOn, missOff)
	}
	// Recorded at the parent of the commit that introduced this test.
	want := []sim.Time{359348, 359951, 359348, 359951}
	for r, at := range done {
		if at != want[r] {
			t.Errorf("rank %d: cache-off GroupWait returned at %d ns, recorded %d ns", r, int64(at), int64(want[r]))
		}
	}
}
