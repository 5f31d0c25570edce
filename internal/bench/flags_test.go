package bench

import (
	"flag"
	"strings"
	"testing"
)

// Check turns the shared-flag values Build would panic on into errors, and
// passes valid values and the two documentation queries.
func TestCommonFlagsCheck(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("word", flag.ContinueOnError)
	cf := RegisterCommonFlags(fs)
	if err := fs.Parse([]string{"-parallel", "3", "-policy", "adaptive", "-fleet", "bf2:2,bf3:2"}); err != nil {
		t.Fatal(err)
	}
	if cf.Parallel != 3 || cf.Policy != "adaptive" || cf.Fleet != "bf2:2,bf3:2" {
		t.Fatalf("parsed values missing: %+v", cf)
	}
	if err := cf.Check(4); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	for _, c := range []struct {
		cf   CommonFlags
		want string
	}{
		{CommonFlags{Policy: "nope"}, "unknown policy"},
		{CommonFlags{Device: "nope"}, "nope"},
		{CommonFlags{Fleet: "bf2:3"}, "names more than the cluster's 2 nodes"},
	} {
		if err := c.cf.Check(2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Check = %v, want an error containing %q", c.cf, err, c.want)
		}
	}
	for _, q := range []CommonFlags{{Device: "list"}, {Fleet: "help"}} {
		if err := q.Check(2); err != nil {
			t.Errorf("query %+v rejected: %v", q, err)
		}
	}
}

// "-device list" and "-fleet help" are documentation queries: they print
// the capability matrix (the fleet variant adds the grammar) and report
// true, which every CLI translates into a clean exit-0 without running a
// benchmark. Anything else runs normally.
func TestHandleDeviceQuery(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	cf := &CommonFlags{Device: "list"}
	if !cf.HandleDeviceQuery(&buf) {
		t.Fatal("-device list not treated as a query")
	}
	if !strings.Contains(buf.String(), "bf2") || !strings.Contains(buf.String(), "CROSS-GVMI") {
		t.Fatalf("-device list did not print the capability matrix:\n%s", buf.String())
	}

	buf.Reset()
	cf = &CommonFlags{Fleet: "help"}
	if !cf.HandleDeviceQuery(&buf) {
		t.Fatal("-fleet help not treated as a query")
	}
	if !strings.Contains(buf.String(), "name[:count]") || !strings.Contains(buf.String(), "bf3") {
		t.Fatalf("-fleet help did not print the grammar and matrix:\n%s", buf.String())
	}

	buf.Reset()
	for _, cf := range []*CommonFlags{{}, {Device: "bf3"}, {Fleet: "bf2:2,bf3:2"}} {
		if cf.HandleDeviceQuery(&buf) {
			t.Fatalf("%+v treated as a documentation query", cf)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("non-query flags printed output: %s", buf.String())
	}
}
