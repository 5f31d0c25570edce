package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datapath"
	"repro/internal/mem"
	"repro/internal/sim"
)

// randomized end-to-end check of the group engine: arbitrary multi-round
// patterns — including forwarding chains where a buffer received in round r
// is re-sent in round r+1, the dependency class only Local_barrier_Goffload
// can express — must execute without deadlock and deliver byte-exact data,
// under either mechanism, with caches on or off, replayed multiple times.

type xferSpec struct {
	round    int
	src, dst int
	size     int
	srcBuf   int // buffer id
	dstBuf   int // buffer id (unique per transfer)
}

type patternSpec struct {
	nodes, ppn, proxies   int
	mech                  datapath.Kind
	regCaches, groupCache bool
	rounds                int
	xfers                 []xferSpec
	nbufs                 int
	bufOwner              []int
	bufSize               []int
	fresh                 []bool // filled locally (vs produced by a transfer)
	calls                 int
}

// genPattern builds a random, deadlock-free pattern: transfers are grouped
// into rounds; every rank separates rounds with a local barrier, so
// dependencies always point forward in round order.
func genPattern(rng *rand.Rand) *patternSpec {
	p := &patternSpec{
		nodes:      1 + rng.Intn(3),
		ppn:        1 + rng.Intn(3),
		proxies:    1 + rng.Intn(2),
		mech:       datapath.Kind(rng.Intn(2)),
		regCaches:  rng.Intn(2) == 0,
		groupCache: rng.Intn(2) == 0,
		rounds:     1 + rng.Intn(3),
		calls:      1 + rng.Intn(2),
	}
	np := p.nodes * p.ppn

	newBuf := func(owner, size int, freshly bool) int {
		id := p.nbufs
		p.nbufs++
		p.bufOwner = append(p.bufOwner, owner)
		p.bufSize = append(p.bufSize, size)
		p.fresh = append(p.fresh, freshly)
		return id
	}

	// receivedAt[rank] = buffer ids received by rank in earlier rounds,
	// usable as forward sources.
	receivedAt := make([][]int, np)
	for round := 0; round < p.rounds; round++ {
		n := rng.Intn(7)
		var recvThisRound [][2]int // (rank, buf)
		for i := 0; i < n; i++ {
			src := rng.Intn(np)
			dst := rng.Intn(np)
			if src == dst {
				continue
			}
			var srcBuf int
			if len(receivedAt[src]) > 0 && rng.Intn(2) == 0 {
				// Forward a previously received buffer.
				srcBuf = receivedAt[src][rng.Intn(len(receivedAt[src]))]
			} else {
				srcBuf = newBuf(src, 64+rng.Intn(4096), true)
			}
			dstBuf := newBuf(dst, p.bufSize[srcBuf], false)
			p.xfers = append(p.xfers, xferSpec{
				round: round, src: src, dst: dst,
				size: p.bufSize[srcBuf], srcBuf: srcBuf, dstBuf: dstBuf,
			})
			recvThisRound = append(recvThisRound, [2]int{dst, dstBuf})
		}
		for _, rb := range recvThisRound {
			receivedAt[rb[0]] = append(receivedAt[rb[0]], rb[1])
		}
	}
	return p
}

// expectedContents simulates the pattern's data flow for one call.
func (p *patternSpec) expectedContents(call int, contents [][]byte) {
	// Fresh buffers are (re)filled before every call.
	for id := range contents {
		if p.fresh[id] {
			b := make([]byte, p.bufSize[id])
			for i := range b {
				b[i] = byte(id*37 + call*101 + i)
			}
			contents[id] = b
		}
	}
	for round := 0; round < p.rounds; round++ {
		for _, x := range p.xfers {
			if x.round == round {
				contents[x.dstBuf] = contents[x.srcBuf]
			}
		}
	}
}

func (p *patternSpec) run(t *testing.T) bool {
	ccfg := cluster.DefaultConfig(p.nodes, p.ppn)
	ccfg.ProxiesPerDPU = p.proxies
	cl := cluster.New(ccfg)
	np := ccfg.NP()
	sites := make([]*cluster.Site, np)
	for i := range sites {
		sites[i] = cl.NewHostSite(cl.NodeOfRank(i), fmt.Sprintf("h%d", i))
	}
	cfg := DefaultConfig()
	cfg.Path = p.mech
	cfg.RegCaches = p.regCaches
	cfg.GroupCache = p.groupCache
	fw := New(cl, cfg, sites)
	fw.Start()

	bufs := make([]*mem.Buffer, p.nbufs)
	for id := 0; id < p.nbufs; id++ {
		bufs[id] = sites[p.bufOwner[id]].Space.Alloc(p.bufSize[id], true)
	}

	model := make([][]byte, p.nbufs)
	ok := true
	for r := 0; r < np; r++ {
		r := r
		h := fw.Host(r)
		cl.K.Spawn(fmt.Sprintf("h%d", r), func(proc *sim.Proc) {
			h.Bind(proc)
			g := h.GroupStart()
			// Tag = index of the transfer; unique and consistent.
			for round := 0; round < p.rounds; round++ {
				if round > 0 {
					g.LocalBarrier()
				}
				for tag, x := range p.xfers {
					if x.round != round {
						continue
					}
					if x.dst == r {
						g.Recv(bufs[x.dstBuf].Addr(), x.size, x.src, tag)
					}
					if x.src == r {
						g.Send(bufs[x.srcBuf].Addr(), x.size, x.dst, tag)
					}
				}
			}
			g.End()
			for call := 0; call < p.calls; call++ {
				// Refill this rank's fresh buffers (the model does the same).
				for id := 0; id < p.nbufs; id++ {
					if p.fresh[id] && p.bufOwner[id] == r {
						b := bufs[id].Bytes()
						for i := range b {
							b[i] = byte(id*37 + call*101 + i)
						}
					}
				}
				h.GroupCall(g)
				h.GroupWait(g)
				// A crude inter-call barrier via compute stagger is not
				// deterministic enough; instead every call is separated by
				// the group's own completion, which is per-rank. To keep
				// calls from overlapping across ranks we also wait for the
				// global quiesce below before checking.
			}
		})
	}
	cl.K.Run()
	if len(cl.K.Deadlocked) > 0 {
		t.Logf("deadlock: %+v", p.summary())
		return false
	}

	for call := 0; call < p.calls; call++ {
		p.expectedContents(call, model)
	}
	for _, x := range p.xfers {
		got := bufs[x.dstBuf].Bytes()
		want := model[x.dstBuf]
		if !bytes.Equal(got, want) {
			t.Logf("mismatch on transfer %+v (%s)", x, p.summary())
			ok = false
			break
		}
	}
	return ok
}

func (p *patternSpec) summary() string {
	return fmt.Sprintf("nodes=%d ppn=%d proxies=%d mech=%v regC=%v grpC=%v rounds=%d xfers=%d calls=%d",
		p.nodes, p.ppn, p.proxies, p.mech, p.regCaches, p.groupCache, p.rounds, len(p.xfers), p.calls)
}

func TestPropertyRandomGroupPatterns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := genPattern(rng)
		return p.run(t)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
