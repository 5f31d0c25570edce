package pattern

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// RunOptions configure pattern execution.
type RunOptions struct {
	// Spec is the system the pattern runs on (baseline.Build): its bundle
	// (Scheme, "" = gvmi), an optional Core override, backed payloads
	// (verifies data integrity) and the sinks. Patterns always run on
	// proxies, so a host-only bundle needs a Core override. PPN 0 packs 8
	// ranks per node, Nodes 0 as few nodes as the pattern needs. The ranks
	// get bare host sites: no MPI world.
	baseline.Spec
	Compute sim.Time // overlapped compute per call on every rank
	Calls   int      // GroupCall repetitions (cache behaviour shows at >1)
}

// RunResult reports one execution.
type RunResult struct {
	NRanks     int
	PerRank    []sim.Time // completion time per rank
	Last       sim.Time   // completion of the slowest rank
	Stats      core.Stats
	DataOK     bool // send/recv payload round-trips verified (Backed only)
	DataChecks int
}

// Run executes the spec on a fresh simulated cluster.
func Run(spec *Spec, opt RunOptions) (*RunResult, error) {
	opt.Calls = max(opt.Calls, 1)
	opt.Scheme = cmp.Or(opt.Scheme, "gvmi")
	opt.PPN = cmp.Or(opt.PPN, 8)
	opt.Nodes = cmp.Or(opt.Nodes, (spec.NRanks+opt.PPN-1)/opt.PPN)
	if opt.Nodes*opt.PPN < spec.NRanks {
		return nil, fmt.Errorf("pattern: %d ranks need more than %d nodes x %d ppn", spec.NRanks, opt.Nodes, opt.PPN)
	}
	opt.Bare = true
	sys, err := baseline.Build(opt.Spec)
	if err != nil {
		return nil, err
	}
	if sys.Fw == nil {
		return nil, fmt.Errorf("pattern: policy %q needs no proxies; patterns always run on proxies", opt.Scheme)
	}
	maxSize := 0 // spec-global, so every rank decides from the same size
	for _, op := range spec.Ops {
		maxSize = max(maxSize, op.Size)
	}

	res := &RunResult{NRanks: spec.NRanks, PerRank: make([]sim.Time, spec.NRanks), DataOK: true}
	for r := 0; r < spec.NRanks; r++ {
		ops := spec.RankOps(r)
		h, site := sys.Fw.Host(r), sys.Sites[r]
		sys.Cl.K.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			h.Bind(p)
			bufs := make([]*mem.Buffer, len(ops))
			for i, op := range ops {
				switch op.Type {
				case core.OpSend:
					bufs[i] = site.Space.Alloc(op.Size, opt.Backed)
					if opt.Backed {
						fillPattern(bufs[i].Bytes(), r, op.Tag)
					}
				case core.OpRecv:
					bufs[i] = site.Space.Alloc(op.Size, opt.Backed)
				}
			}
			rp := NewReplayer(h, sys.Engines[0], ops, bufs, maxSize)
			for c := 0; c < opt.Calls; c++ {
				rp.Call(opt.Compute)
			}
			res.PerRank[r] = p.Now()
			if opt.Backed {
				for i, op := range ops {
					if op.Type != core.OpRecv {
						continue
					}
					res.DataChecks++
					if !checkPattern(bufs[i].Bytes(), op.Peer, op.Tag) {
						res.DataOK = false
					}
				}
			}
		})
	}
	if _, err := sys.Run(); err != nil {
		return nil, fmt.Errorf("pattern: %w (circular barrier dependency?)", err)
	}
	res.Last = slices.Max(res.PerRank)
	res.Stats = sys.Fw.Stats()
	return res, nil
}

// fillPattern writes a (sender, tag)-derived byte pattern. Note: data
// checks only hold for specs where receives are not forwarded from other
// receives (each recv's matching send has a freshly filled buffer).
func fillPattern(b []byte, sender, tag int) {
	for i := range b {
		b[i] = byte(sender*13 + tag*7 + i)
	}
}

func checkPattern(b []byte, sender, tag int) bool {
	if b == nil {
		return true
	}
	for i := range b {
		if b[i] != byte(sender*13+tag*7+i) {
			return false
		}
	}
	return true
}
