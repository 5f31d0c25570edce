package pattern

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzParse feeds arbitrary text to the two parsers of outside input: they
// may reject it, but never panic, never hand back a non-positive size, and
// a spec Parse accepts is well-formed — it validates, and every rank, peer
// and size is within the bounds Run relies on.
func FuzzParse(f *testing.F) {
	f.Add("0 send 1 256K 4\n1 recv 0 256K 4\n1 barrier\n")
	f.Add("# comment\n\n0 barrier")
	f.Add("64K")
	f.Fuzz(func(t *testing.T, in string) {
		if n, err := ParseSize(in); err == nil && n <= 0 {
			t.Fatalf("ParseSize(%q) = %d with no error", in, n)
		}
		s, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", err)
		}
		if s.NRanks > MaxRanks {
			t.Fatalf("NRanks = %d, above MaxRanks", s.NRanks)
		}
		for _, op := range s.Ops {
			if op.Rank < 0 || op.Rank >= s.NRanks {
				t.Fatalf("op %+v: rank outside [0,%d)", op, s.NRanks)
			}
			if op.Type != core.OpBarrier && (op.Peer < 0 || op.Peer >= s.NRanks || op.Size <= 0) {
				t.Fatalf("op %+v: peer outside [0,%d) or non-positive size", op, s.NRanks)
			}
		}
	})
}
