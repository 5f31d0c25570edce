package stencil

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
)

func TestDecompose3Factors(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 8, 12, 64, 512} {
		g := Decompose3(np)
		if g.PX*g.PY*g.PZ != np {
			t.Fatalf("np=%d: %v does not multiply out", np, g)
		}
	}
	if g := Decompose3(64); g.PX != 4 || g.PY != 4 || g.PZ != 4 {
		t.Fatalf("Decompose3(64) = %v, want cubic 4x4x4", g)
	}
	if g := Decompose3(512); g.PX != 8 || g.PY != 8 || g.PZ != 8 {
		t.Fatalf("Decompose3(512) = %v, want 8x8x8", g)
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	g := Decompose3(24)
	for r := 0; r < 24; r++ {
		x, y, z := g.Coords(r)
		if g.RankAt(x, y, z) != r {
			t.Fatalf("rank %d -> (%d,%d,%d) -> %d", r, x, y, z, g.RankAt(x, y, z))
		}
	}
}

func TestNeighboursSymmetric(t *testing.T) {
	g := Decompose3(27)
	for r := 0; r < 27; r++ {
		for _, nb := range g.neighbours(r) {
			found := false
			for _, back := range g.neighbours(nb) {
				if back == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbour relation not symmetric: %d -> %d", r, nb)
			}
		}
	}
	// Interior rank of a 3x3x3 grid has all 6 neighbours.
	if n := len(g.neighbours(g.RankAt(1, 1, 1))); n != 6 {
		t.Fatalf("interior rank has %d neighbours, want 6", n)
	}
	// Corner has 3.
	if n := len(g.neighbours(g.RankAt(0, 0, 0))); n != 3 {
		t.Fatalf("corner rank has %d neighbours, want 3", n)
	}
}

func TestRunSchemes(t *testing.T) {
	for _, scheme := range []string{baseline.NameIntelMPI, baseline.NameProposed} {
		res := Run(bench.Options{Nodes: 2, PPN: 4, Scheme: scheme}, 128, 1, 2)
		if res.Pure <= 0 || res.Overall <= 0 {
			t.Fatalf("%s: bad result %+v", scheme, res)
		}
		t.Logf("%s: pure=%v overall=%v overlap=%.1f%%", scheme, res.Pure, res.Overall, res.Overlap)
	}
}

func TestOffloadOverlapBeatsHost(t *testing.T) {
	// With large faces (rendezvous territory) the offloaded stencil must
	// overlap better than the host baseline (Figures 11/12).
	host := Run(bench.Options{Nodes: 4, PPN: 2, Scheme: baseline.NameIntelMPI}, 512, 1, 2)
	off := Run(bench.Options{Nodes: 4, PPN: 2, Scheme: baseline.NameProposed}, 512, 1, 2)
	if off.Overlap <= host.Overlap {
		t.Fatalf("offload overlap %.1f%% <= host overlap %.1f%%", off.Overlap, host.Overlap)
	}
	if off.Overall >= host.Overall {
		t.Fatalf("offload overall %v >= host overall %v", off.Overall, host.Overall)
	}
}

// A halo-exchange iteration allocates nothing once the run is warm: its
// requests come back to their pools when WaitAll returns and the rank's
// request slice is reused, so a run of 2k iterations allocates exactly what
// a run of k does, whether the inter-node faces ride the DPU proxies or the
// host's rendezvous protocol. (The ranks' message queues reach their depth
// within the first few iterations; at k = 4 the proposed run is still
// growing them.)
//
// A whole run is counted, set-up included, and under the race detector
// sync.Pool drops items at random, so the names fmt builds at set-up cost a
// different number of objects from run to run: the comparison holds only
// without -race.
func TestStencilIterationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("set-up allocations vary from run to run under -race")
	}
	const k = 8
	for _, scheme := range []string{baseline.NameProposed, baseline.NameIntelMPI} {
		opt := bench.Options{Nodes: 2, PPN: 4, Scheme: scheme}
		run := func(iters int) float64 {
			return testing.AllocsPerRun(1, func() { Run(opt, 128, 1, iters) })
		}
		if few, many := run(k), run(2*k); many != few {
			t.Errorf("%s: %d iterations allocate %.0f objects, %d allocate %.0f: %.1f per extra iteration, want 0",
				scheme, 2*k, many, k, few, (many-few)/k)
		}
	}
}
