package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// refGroup is the group engine's receive side as it was before the counter
// barriers: per-source maps and a predicate that walks them. The
// differential test below runs it beside the real engine.
type refGroup struct {
	entries   []wireOp
	want, got map[int]int
	installed bool
	running   bool
	idx       int
	callSeq   int
	finished  int
}

// satisfied is the old recvsSatisfied: ∀src: got[src] ≥ want[src].
func (r *refGroup) satisfied() bool {
	for src, n := range r.want {
		if r.got[src] < n {
			return false
		}
	}
	return true
}

// missing is the invariant the counter must keep: Σ max(0, want−got).
func (r *refGroup) missing() int {
	n := 0
	for src, w := range r.want {
		if d := w - r.got[src]; d > 0 {
			n += d
		}
	}
	return n
}

// advance mirrors advanceGroup for patterns without sends.
func (r *refGroup) advance() {
	if !r.running {
		if r.finished >= r.callSeq {
			return
		}
		r.running, r.idx = true, 0
	}
	for ; r.idx < len(r.entries); r.idx++ {
		switch e := r.entries[r.idx]; e.Type {
		case OpRecv:
			r.want[int(e.Peer)]++
		case OpBarrier:
			if !r.satisfied() {
				return
			}
		}
	}
	if r.satisfied() {
		r.running = false
		r.finished++
	}
}

// TestCounterBarrierMatchesReferencePredicate interleaves, at random, group
// installs and replays, engine rounds and delivery notifications — before the
// group they count toward is installed, across calls, for several groups per
// host, with duplicates thrown in — and checks after every step that the
// engine stands where the reference engine stands, that missing == 0 says
// what the old predicate says, and that every duplicate, and nothing else,
// was suppressed. The notifications reach the host's counters through its
// proxy, or with crashes configured through the host's counter endpoint.
func TestCounterBarrierMatchesReferencePredicate(t *testing.T) {
	for _, crash := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("crash=%v/seed=%d", crash, seed), func(t *testing.T) {
				runBarrierDifferential(t, rand.New(rand.NewSource(seed)), crash)
			})
		}
	}
}

func runBarrierDifferential(t *testing.T, rng *rand.Rand, crash bool) {
	const nodes, ppn, groupsPerHost, steps = 2, 3, 3, 400
	ccfg := cluster.DefaultConfig(nodes, ppn)
	ccfg.ProxiesPerDPU = 1
	if crash {
		// Crash-configured placement; the crash itself never happens.
		ccfg.Fault = fault.DefaultConfig(1)
		ccfg.Fault.Crashes = []fault.Crash{{Proxy: 1, At: sim.Time(1) << 60}}
	}
	cl := cluster.New(ccfg)
	np := ccfg.NP()
	sites := make([]*cluster.Site, np)
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), fmt.Sprintf("host%d", i))
	}
	fw := New(cl, DefaultConfig(), sites) // not started: the test is the progress engine
	px := fw.Proxy(0)
	// The proxy's engine only finishes the costed calls the test makes: a
	// stopped framework's engine runs no round of its own.
	px.eng = newEngine(px)
	fw.Stop()

	type key struct{ host, id int }
	refs := make(map[key]*refGroup)
	var keys []key
	for host := 0; host < ppn; host++ { // proxy 0 serves node 0
		for id := 0; id < groupsPerHost; id++ {
			k := key{host, id}
			r := &refGroup{want: map[int]int{}, got: map[int]int{}}
			g := fw.Host(host).GroupStart() // sizes the host's counters at End
			for n := 1 + rng.Intn(8); n > 0; n-- {
				if rng.Intn(3) == 0 {
					r.entries = append(r.entries, wireOp{Type: OpBarrier})
					g.LocalBarrier()
				} else {
					r.entries = append(r.entries, wireOp{Type: OpRecv, Peer: int32(rng.Intn(np))})
					g.Recv(0, 0, int(r.entries[len(r.entries)-1].Peer), 0)
				}
			}
			g.End()
			refs[k] = r
			keys = append(keys, k)
		}
	}
	type srcKey struct {
		key
		src int
	}
	sentBy := make(map[srcKey]int) // notifications sent so far per (group, source)
	var sent []dlvMsg              // every notification so far, for duplicates
	dups := int64(0)

	// check reports through Errorf: the caller is a simulated process, which
	// must return rather than exit its goroutine.
	check := func(step int, what string) bool {
		var suppressed int64
		for _, k := range keys {
			r := refs[k]
			if g := px.group(k.host, k.id); g == nil {
				if r.installed {
					t.Errorf("step %d (%s): group %v installed, but the proxy holds no entry", step, what, k)
					return false
				}
			} else if !r.installed || g.running != r.running || g.idx != r.idx ||
				g.callSeq != r.callSeq || g.finishedSeq != r.finished {
				t.Errorf("step %d (%s): group %v engine at {installed true running %v idx %d call %d finished %d}, reference at {%v %v %d %d %d}",
					step, what, k, g.running, g.idx, g.callSeq, g.finishedSeq,
					r.installed, r.running, r.idx, r.callSeq, r.finished)
				return false
			}
			if b := fw.Host(k.host).barrier(k.id); b.missing != r.missing() || (b.missing == 0) != r.satisfied() {
				t.Errorf("step %d (%s): group %v missing = %d, reference Σmax(0,want−got) = %d, old predicate %v",
					step, what, k, b.missing, r.missing(), r.satisfied())
				return false
			}
		}
		for host := 0; host < ppn; host++ {
			suppressed += fw.Host(host).DlvDup
		}
		if suppressed != dups {
			t.Errorf("step %d (%s): %d duplicate notifications suppressed, %d thrown", step, what, suppressed, dups)
			return false
		}
		return true
	}

	cl.K.Spawn("engine", func(p *sim.Proc) {
		// settle lets the engine issue a post the last call paid for.
		settle := func() {
			if px.eng.clk.Charged() {
				p.Sleep(cl.Reg.Costs().PostWR)
			}
		}
		for step := 0; step < steps; step++ {
			k := keys[rng.Intn(len(keys))]
			r := refs[k]
			var what string
			switch op := rng.Intn(10); {
			case op == 0 && r.callSeq-r.finished < 3: // a new call: install first, replay after
				what = "call"
				r.callSeq++
				if !r.installed {
					r.installed = true
					px.dispatch(&verbs.Packet{Kind: "group", Payload: &groupPacket{
						HostRank: k.host, GroupID: k.id, CallSeq: r.callSeq, Entries: r.entries}})
				} else {
					m := fw.greplayFree.Get()
					*m = greplayMsg{HostRank: k.host, GroupID: k.id, CallSeq: r.callSeq}
					px.dispatch(fw.ctrlPacket("greplay", ctrlSize, m, 0))
				}
			case op <= 3: // one engine round, as the engine's groupRound does it
				what = "round"
				for _, g := range px.groupList {
					if g.active() {
						px.advanceGroup(g) // without sends, only a completion notice cuts it
						settle()
					}
				}
				for _, k := range keys {
					if refs[k].installed { // install order does not matter without sends
						refs[k].advance()
					}
				}
			default: // a delivery notification, perhaps a duplicate
				what = "dlv"
				var m dlvMsg
				if len(sent) > 0 && rng.Intn(4) == 0 {
					m = sent[rng.Intn(len(sent))]
					what = "dlv-dup"
					dups++
				} else {
					// The source's next notification: entry n of its call,
					// per of them a call (each source's notifications
					// arrive in order here; FuzzDeliveries reorders them).
					sk := srcKey{k, rng.Intn(np)}
					n, per := sentBy[sk], 0
					for _, e := range r.entries {
						if e.Type == OpRecv && int(e.Peer) == sk.src {
							per++
						}
					}
					m = dlvMsg{SrcHost: int32(sk.src), DstHost: int32(k.host), DstGroup: int32(k.id), Call: int32(1 + n), Entry: 0}
					if per > 0 {
						m.Call, m.Entry = int32(1+n/per), int32(n%per)
					}
					sentBy[sk]++
					sent = append(sent, m)
					r.got[int(m.SrcHost)]++
				}
				// Pooled, as the proxy recycles what it counts.
				pkt := fw.dlvPacket(m, 0)
				if crash {
					fw.Host(int(m.DstHost)).countDelivery(pkt)
				} else {
					px.dispatch(pkt)
				}
			}
			if !check(step, what) {
				return
			}
		}
	})
	cl.K.Run()
}
