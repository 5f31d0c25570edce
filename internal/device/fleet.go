package device

import (
	"fmt"
	"strconv"
	"strings"
)

// ExpandFleet parses a fleet spec into a per-node profile-name list of
// exactly `nodes` entries.
//
// Grammar (the -fleet flag):
//
//	spec  := group ("," group)*
//	group := name [":" count]
//
// A bare single name ("bf3") means every node; otherwise the group counts
// (default 1 each) must sum to the node count. Examples for 4 nodes:
//
//	"bf2"            -> [bf2 bf2 bf2 bf2]
//	"bf2:2,bf3:2"    -> [bf2 bf2 bf3 bf3]
//	"bf3,bf2:3"      -> [bf3 bf2 bf2 bf2]
//
// Every name must be registered.
func ExpandFleet(spec string, nodes int) ([]string, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("device: fleet needs a positive node count, got %d", nodes)
	}
	groups := strings.Split(spec, ",")
	if len(groups) == 1 && !strings.Contains(groups[0], ":") {
		name := strings.TrimSpace(groups[0])
		if _, err := Lookup(name); err != nil {
			return nil, err
		}
		out := make([]string, nodes)
		for i := range out {
			out[i] = name
		}
		return out, nil
	}
	var out []string
	for _, g := range groups {
		name, count := strings.TrimSpace(g), 1
		if i := strings.IndexByte(name, ':'); i >= 0 {
			n, err := strconv.Atoi(name[i+1:])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("device: bad fleet group %q (want name:count)", g)
			}
			name, count = name[:i], n
		}
		if _, err := Lookup(name); err != nil {
			return nil, err
		}
		if count > nodes-len(out) {
			// Checked before expanding: the count is input, not a size to trust.
			return nil, fmt.Errorf("device: fleet spec %q names more than the cluster's %d nodes", spec, nodes)
		}
		for i := 0; i < count; i++ {
			out = append(out, name)
		}
	}
	if len(out) != nodes {
		return nil, fmt.Errorf("device: fleet spec %q names %d nodes, cluster has %d", spec, len(out), nodes)
	}
	return out, nil
}

// Resolve maps a per-node name list to profiles. Empty names resolve to
// fallback (the homogeneous base profile).
func Resolve(names []string, fallback Profile) ([]Profile, error) {
	out := make([]Profile, len(names))
	for i, n := range names {
		if n == "" {
			out[i] = fallback
			continue
		}
		p, err := Lookup(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
