package bench

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// A crash plan whose crash comes after all work (at 2^60 ns) leaves every
// fig13 point's pure and overall times as they are without a plan, for
// Proposed and BluesMPI, on a 4×4 rig at 1 KiB and 32 KiB. What the plan
// does move is pinned too: the hosts' delivery notifications are written
// into host memory, so node 0's 300 of them leave its DPU port (Proposed:
// 320 → 20 messages received there) for its host port, and the crash still
// fires once the work is done.
func TestUnfiredCrashPlanMatchesFig13(t *testing.T) {
	t.Parallel()
	const notifications = 300 // node 0: 4 ranks × 15 peers × 5 calls (warmup 1, 2 pure, 2 overall)
	for _, c := range []struct {
		scheme string
		dpuRx  int64 // n0.dpu fabric msgs_rx without a plan
	}{
		{baseline.NameProposed, 320},
		{baseline.NameBluesMPI, 620},
	} {
		for _, size := range []int{1 << 10, 32 << 10} {
			run := func(plan *fault.Config) (NBCResult, *metrics.Registry) {
				reg := metrics.NewRegistry()
				opt := Options{Nodes: 4, PPN: 4, Scheme: c.scheme, Fault: plan, Metrics: reg}
				return MeasureIalltoall(opt, size, 1, 2), reg
			}
			crash := fault.DefaultConfig(1)
			crash.Crashes = []fault.Crash{{Proxy: 0, At: 1 << 60}}
			bare, bm := run(nil)
			planned, pm := run(crash)
			if planned.PureComm != bare.PureComm || planned.Overall != bare.Overall {
				t.Errorf("%s %d B: unfired crash plan pure=%d overall=%d, no plan %d/%d",
					c.scheme, size, planned.PureComm, planned.Overall, bare.PureComm, bare.Overall)
			}
			rx := func(m *metrics.Registry, ep string) int64 { return m.Counter("fabric", ep, "msgs_rx").Value() }
			if got := [2]int64{rx(bm, "n0.dpu"), rx(pm, "n0.dpu")}; got != [2]int64{c.dpuRx, c.dpuRx - notifications} {
				t.Errorf("%s %d B: n0.dpu received %d messages without a plan and %d with it, want %d and %d",
					c.scheme, size, got[0], got[1], c.dpuRx, c.dpuRx-notifications)
			}
			if d := rx(pm, "n0.host") - rx(bm, "n0.host"); d != notifications {
				t.Errorf("%s %d B: the plan moved %d messages to n0.host, want %d", c.scheme, size, d, notifications)
			}
			crashes := func(m *metrics.Registry) int64 { return m.Counter("core", "proxy0", "crashes").Value() }
			if bc, pc := crashes(bm), crashes(pm); bc != 0 || pc != 1 {
				t.Errorf("%s %d B: %d crashes without a plan and %d with it, want 0 and 1 (after all work)", c.scheme, size, bc, pc)
			}
		}
	}
}
