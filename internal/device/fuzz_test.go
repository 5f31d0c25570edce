package device

import "testing"

// FuzzExpandFleet feeds arbitrary -fleet specs to the parser: it may reject
// them, but never panics or expands beyond the node count, and what it
// accepts is exactly one registered profile name per node.
func FuzzExpandFleet(f *testing.F) {
	f.Add("bf2", 3)
	f.Add("bf2:2,bf3:2", 4)
	f.Add(" bf3 , bf2:3 ", 4)
	f.Add("bf2:x", 2)
	f.Fuzz(func(t *testing.T, spec string, nodes int) {
		nodes %= 64 // the node count is the program's own, not part of the spec
		names, err := ExpandFleet(spec, nodes)
		if err != nil {
			if names != nil {
				t.Fatalf("ExpandFleet(%q, %d) returned names with error %v", spec, nodes, err)
			}
			return
		}
		if len(names) != nodes {
			t.Fatalf("ExpandFleet(%q, %d) named %d nodes", spec, nodes, len(names))
		}
		for _, n := range names {
			if _, err := Lookup(n); err != nil {
				t.Fatalf("ExpandFleet(%q, %d) produced unregistered %q", spec, nodes, n)
			}
		}
	})
}
