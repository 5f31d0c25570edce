// Package pattern parses and executes user-defined communication patterns
// on the offload framework — the "any generic communication pattern" the
// paper's API was designed for. A pattern is a text spec, one operation per
// line:
//
//	# ring broadcast over 4 ranks
//	0 send 1 256K 4
//	1 recv 0 256K 4
//	1 barrier
//	1 send 2 256K 4
//	...
//
// Fields: <rank> send <dst> <size> [tag] | <rank> recv <src> <size> [tag]
// | <rank> barrier. Sizes accept K/M suffixes. `offloadbench pattern` runs a
// spec (or a built-in preset) under a chosen policy and reports per-rank
// completion times and framework statistics.
package pattern

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Op is one parsed operation.
type Op struct {
	Rank int
	Type core.OpType
	Peer int
	Size int
	Tag  int
}

// MaxRanks bounds the rank and peer numbers a spec may name: Run sizes its
// per-rank state by the highest one, so an unbounded number in a spec file
// would be an allocation of the file's choosing.
const MaxRanks = 1 << 16

// Spec is a parsed pattern.
type Spec struct {
	Ops    []Op
	NRanks int // highest rank mentioned + 1
}

// Parse reads a pattern spec.
func Parse(r io.Reader) (*Spec, error) {
	s := &Spec{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		op, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		s.Ops = append(s.Ops, op)
		if op.Rank+1 > s.NRanks {
			s.NRanks = op.Rank + 1
		}
		if op.Type != core.OpBarrier && op.Peer+1 > s.NRanks {
			s.NRanks = op.Peer + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseLine(line string) (Op, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Op{}, fmt.Errorf("too few fields in %q", line)
	}
	rank, err := strconv.Atoi(f[0])
	if err != nil || rank < 0 || rank >= MaxRanks {
		return Op{}, fmt.Errorf("bad rank %q (want 0..%d)", f[0], MaxRanks-1)
	}
	switch f[1] {
	case "barrier":
		return Op{Rank: rank, Type: core.OpBarrier}, nil
	case "send", "recv":
		if len(f) < 4 {
			return Op{}, fmt.Errorf("%s needs <peer> <size> [tag]", f[1])
		}
		peer, err := strconv.Atoi(f[2])
		if err != nil || peer < 0 || peer >= MaxRanks {
			return Op{}, fmt.Errorf("bad peer %q (want 0..%d)", f[2], MaxRanks-1)
		}
		size, err := ParseSize(f[3])
		if err != nil {
			return Op{}, err
		}
		tag := 0
		if len(f) >= 5 {
			if tag, err = strconv.Atoi(f[4]); err != nil {
				return Op{}, fmt.Errorf("bad tag %q", f[4])
			}
		}
		typ := core.OpSend
		if f[1] == "recv" {
			typ = core.OpRecv
		}
		return Op{Rank: rank, Type: typ, Peer: peer, Size: size, Tag: tag}, nil
	default:
		return Op{}, fmt.Errorf("unknown op %q", f[1])
	}
}

// ParseSize parses "4096", "64K", "2M".
func ParseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 || v > math.MaxInt/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

// Validate checks that every send has a matching recv (same pair, tag and
// size, in order) — the framework requirement "for every Send_Offload there
// should be a matching Receive_Offload".
func (s *Spec) Validate() error {
	type key struct{ src, dst, tag int }
	sends := map[key][]int{}
	recvs := map[key][]int{}
	for _, op := range s.Ops {
		switch op.Type {
		case core.OpSend:
			k := key{op.Rank, op.Peer, op.Tag}
			sends[k] = append(sends[k], op.Size)
		case core.OpRecv:
			k := key{op.Peer, op.Rank, op.Tag}
			recvs[k] = append(recvs[k], op.Size)
		}
	}
	for k, ss := range sends {
		rs := recvs[k]
		if len(rs) != len(ss) {
			return fmt.Errorf("unmatched transfers %d->%d tag %d: %d sends, %d recvs",
				k.src, k.dst, k.tag, len(ss), len(rs))
		}
		for i := range ss {
			if ss[i] != rs[i] {
				return fmt.Errorf("size mismatch %d->%d tag %d: send %d vs recv %d",
					k.src, k.dst, k.tag, ss[i], rs[i])
			}
		}
	}
	for k, rs := range recvs {
		if len(sends[k]) != len(rs) {
			return fmt.Errorf("recv without send %d->%d tag %d", k.src, k.dst, k.tag)
		}
	}
	return nil
}

// RankOps returns the operations of one rank, in spec order.
func (s *Spec) RankOps(rank int) []Op {
	var out []Op
	for _, op := range s.Ops {
		if op.Rank == rank {
			out = append(out, op)
		}
	}
	return out
}

// Presets generate common patterns.

// Ring returns a ring broadcast over np ranks rooted at 0 (Listing 5).
func Ring(np, size int) *Spec {
	s := &Spec{NRanks: np}
	add := func(op Op) { s.Ops = append(s.Ops, op) }
	for r := 0; r < np; r++ {
		right := (r + 1) % np
		if r == 0 {
			add(Op{Rank: 0, Type: core.OpSend, Peer: right, Size: size})
			add(Op{Rank: 0, Type: core.OpBarrier})
		} else {
			add(Op{Rank: r, Type: core.OpRecv, Peer: r - 1, Size: size})
			add(Op{Rank: r, Type: core.OpBarrier})
			if right != 0 {
				add(Op{Rank: r, Type: core.OpSend, Peer: right, Size: size})
			}
		}
	}
	return s
}

// Alltoall returns a scatter-destination personalized exchange.
func Alltoall(np, size int) *Spec {
	s := &Spec{NRanks: np}
	for r := 0; r < np; r++ {
		for i := 1; i < np; i++ {
			src := (r - i + np) % np
			s.Ops = append(s.Ops, Op{Rank: r, Type: core.OpRecv, Peer: src, Size: size, Tag: src})
		}
		for i := 1; i < np; i++ {
			dst := (r + i) % np
			s.Ops = append(s.Ops, Op{Rank: r, Type: core.OpSend, Peer: dst, Size: size, Tag: r})
		}
	}
	return s
}

// Chatty returns a ring exchange where every rank sends k tagged messages
// of size bytes to its right neighbour and receives k from its left. With
// small sizes the group is bound by per-op proxy handling and injection
// overhead rather than payload bytes — the load shape that saturates a DPU
// worker while leaving host ports nearly idle (the drift bench's background
// traffic).
func Chatty(np, k, size int) *Spec {
	s := &Spec{NRanks: np}
	for r := 0; r < np; r++ {
		right := (r + 1) % np
		left := (r - 1 + np) % np
		for i := 0; i < k; i++ {
			s.Ops = append(s.Ops,
				Op{Rank: r, Type: core.OpSend, Peer: right, Size: size, Tag: i},
				Op{Rank: r, Type: core.OpRecv, Peer: left, Size: size, Tag: i})
		}
	}
	return s
}

// Neighbor returns a 1D nearest-neighbour halo exchange.
func Neighbor(np, size int) *Spec {
	s := &Spec{NRanks: np}
	for r := 0; r < np; r++ {
		if r > 0 {
			s.Ops = append(s.Ops,
				Op{Rank: r, Type: core.OpSend, Peer: r - 1, Size: size, Tag: 1},
				Op{Rank: r, Type: core.OpRecv, Peer: r - 1, Size: size, Tag: 2})
		}
		if r < np-1 {
			s.Ops = append(s.Ops,
				Op{Rank: r, Type: core.OpSend, Peer: r + 1, Size: size, Tag: 2},
				Op{Rank: r, Type: core.OpRecv, Peer: r + 1, Size: size, Tag: 1})
		}
	}
	return s
}
