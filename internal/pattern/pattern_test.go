package pattern

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/sim"
)

func TestParseBasics(t *testing.T) {
	spec, err := Parse(strings.NewReader(`
# ring fragment
0 send 1 64K 4
1 recv 0 64K 4
1 barrier
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.NRanks != 2 || len(spec.Ops) != 3 {
		t.Fatalf("NRanks=%d ops=%d", spec.NRanks, len(spec.Ops))
	}
	if spec.Ops[0].Type != core.OpSend || spec.Ops[0].Size != 64<<10 || spec.Ops[0].Tag != 4 {
		t.Fatalf("bad first op: %+v", spec.Ops[0])
	}
	if spec.Ops[2].Type != core.OpBarrier {
		t.Fatal("barrier not parsed")
	}
}

func TestParseSizeSuffixes(t *testing.T) {
	cases := map[string]int{"512": 512, "4K": 4096, "4k": 4096, "2M": 2 << 20}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Fatalf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// The last two used to wrap around: "9223372036854775807K" parsed as -1024.
	for _, bad := range []string{"", "-4", "0", "4X", "K", "9223372036854775807K", "8796093022208M"} {
		if _, err := ParseSize(bad); err == nil {
			t.Fatalf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"x send 1 4K",                      // bad rank
		"0 frobnicate",                     // unknown op
		"0 send 1",                         // missing size
		"0 send -1 4K",                     // bad peer
		"0 send 1 4K q",                    // bad tag
		"999999999 barrier",                // rank beyond MaxRanks (Run would size its state by it)
		"0 send 65536 4K\n65536 recv 0 4K", // peer beyond MaxRanks
		"0 send 1 9223372036854775807K 0",  // size overflows int
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("accepted %q", c)
		}
	}
}

func TestValidateRejectsUnmatched(t *testing.T) {
	if _, err := Parse(strings.NewReader("0 send 1 4K")); err == nil {
		t.Fatal("unmatched send accepted")
	}
	if _, err := Parse(strings.NewReader("1 recv 0 4K")); err == nil {
		t.Fatal("unmatched recv accepted")
	}
	if _, err := Parse(strings.NewReader("0 send 1 4K\n1 recv 0 8K")); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestPresetsValid(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"ring":     Ring(5, 4096),
		"alltoall": Alltoall(4, 4096),
		"neighbor": Neighbor(6, 4096),
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s preset invalid: %v", name, err)
		}
	}
}

func TestRunRingIntegrityAndOverlap(t *testing.T) {
	spec := Ring(6, 64<<10)
	res, err := Run(spec, RunOptions{
		PPN: 2, Core: core.DefaultConfig(),
		Compute: 2 * sim.Millisecond, Calls: 2, Backed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DataOK {
		t.Fatal("data corrupted")
	}
	// The whole double-call run must take barely more than the compute
	// (2 calls x 2ms): the ring progresses on the proxies.
	if res.Last > 2*2*sim.Millisecond+500*sim.Microsecond {
		t.Fatalf("ring not overlapped: finished at %v", res.Last)
	}
	if res.Stats.GroupHits == 0 {
		t.Fatal("second call should hit the group cache")
	}
}

func TestRunAlltoallBothMechanisms(t *testing.T) {
	for _, mech := range []datapath.Kind{datapath.KindCrossGVMI, datapath.KindStaged} {
		cfg := core.DefaultConfig()
		cfg.Path = mech
		res, err := Run(Alltoall(6, 8<<10), RunOptions{PPN: 3, Core: cfg, Backed: true})
		if err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		if !res.DataOK || res.DataChecks != 6*5 {
			t.Fatalf("%v: integrity %v, checks %d", mech, res.DataOK, res.DataChecks)
		}
		if mech == datapath.KindStaged && res.Stats.StagedOps == 0 {
			t.Fatal("staging mechanism did not stage")
		}
	}
}

func TestRunRejectsOversubscription(t *testing.T) {
	if _, err := Run(Ring(16, 1024), RunOptions{Nodes: 1, PPN: 2, Core: core.DefaultConfig()}); err == nil {
		t.Fatal("expected capacity error")
	}
}

// deadlockSpec validates (every send has its recv) but cannot finish: both
// ranks hold their send behind a barrier on the other's send.
const deadlockSpec = `
0 recv 1 4K
0 barrier
0 send 1 4K
1 recv 0 4K
1 barrier
1 send 0 4K
`

// Run retires its simulation on every way out: proxy daemons and deadlocked
// ranks are unwound, so repeated runs leave no goroutine behind, and the
// deadlock report names the blocked ranks. The count may fall below the
// baseline (under -race a goroutine was still exiting when it was read) but
// never rise above it.
func TestRunLeaksNoGoroutines(t *testing.T) {
	dead, err := Parse(strings.NewReader(deadlockSpec))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Run(Ring(8, 4096), RunOptions{Nodes: 2, PPN: 4, Calls: 2}); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("run %d: %d goroutines, want at most the baseline %d", i, n, base)
		}
	}
	for i := 0; i < 5; i++ {
		_, err := Run(dead, RunOptions{Nodes: 2, PPN: 1})
		if err == nil {
			t.Fatal("deadlocking spec finished")
		}
		for _, name := range []string{"rank0", "rank1"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("deadlock report %q does not name %s", err, name)
			}
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("deadlocked run %d: %d goroutines, want at most the baseline %d", i, n, base)
		}
	}
}
