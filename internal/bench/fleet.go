// The fleet bench is the mixed-fleet acceptance scenario of the device
// substrate: half the nodes carry the baseline BlueField-2 part, half the
// BlueField-3 part, and ranks exchange cross-half point-to-point messages
// sized inside the window where the two parts disagree about host-vs-
// offload (above BlueField-3's scaled cutoff, at or below BlueField-2's).
// A capability-blind adaptive policy keeps every transfer on the host; a
// capability-aware policy offloads exactly the transfers whose sender owns
// the cheaper DPU, which is the measurable margin FleetSnapshot.Validate
// pins. The same snapshot also re-measures the fig13 guard configurations
// on an explicit homogeneous bf2 fleet and requires them byte-identical to
// the checked-in BENCH_fig13.json — the proof that the profile substrate
// did not move the legacy numbers.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/baseline"
	"repro/internal/coll"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// FleetSchema is the schema tag of BENCH_fleet.json; bump it when the
// layout changes incompatibly.
const FleetSchema = "offload-fleet/v1"

// Fleet bench shape: 4 nodes x 2 PPN, the first two nodes BlueField-2 and
// the last two BlueField-3, exchanging 6400-byte messages — above the
// BlueField-3 scaled cutoff (5430B), at or below the BlueField-2 one
// (8 KiB), and inside the window where the measured overlap-methodology
// breakevens of the two parts actually disagree on this cluster (the
// BlueField-3 half already wins by offloading, the BlueField-2 half still
// wins by staying on the host).
const (
	fleetSpec   = "bf2:2,bf3:2"
	fleetNodes  = 4
	fleetPPN    = 2
	fleetSize   = 6400
	fleetWarmup = 1
	fleetIters  = 5
)

// fleetPolicies are the policy bundles the mixed-fleet table compares. The
// two fixed paths bracket the decision space; "adaptive" is the
// capability-blind rule and "aware" the capability-aware one.
var fleetPolicies = []string{"hostdirect", "gvmi", "adaptive", "aware"}

// FleetPoint is one policy's measurement on the mixed fleet.
type FleetPoint struct {
	Policy string `json:"policy"`
	Timings
}

// FleetSnapshot is the checked-in mixed-fleet baseline: the homogeneous
// bf2 re-measurement of the fig13 guard points, the per-policy mixed-fleet
// table, and the full metrics snapshot of the runs that produced both.
type FleetSnapshot struct {
	Schema      string           `json:"schema"`
	Fleet       string           `json:"fleet"`
	Config      BenchConfig      `json:"config"`
	Size        int              `json:"size"`
	Homogeneous []BenchPoint     `json:"homogeneous"`
	Mixed       []FleetPoint     `json:"mixed"`
	Metrics     metrics.Snapshot `json:"metrics"`
}

// MeasureFleetExchange measures an inter-node pairwise exchange within
// each fleet half: every rank sends one message to (and receives one from)
// a rank on the *other node of its own half*, first bare (pure latency),
// then with compute sized to the rank's pure latency injected between
// issue and wait (the OMB overlap methodology). Pairing stays within a
// half so each device's host-vs-offload decision is measured on its own
// hardware — a cross-device pair would serialize the slower direction
// into both ranks' completion and blur the per-device margin. Reported
// values are the mean over ranks (the whole-fleet cost a scheduler sees),
// not the max, which on a mixed fleet is pinned to the slower half no
// matter what the faster half's policy does.
func MeasureFleetExchange(opt Options, msgSize, warmup, iters int) NBCResult {
	e := Build(opt)
	half := e.Cl.Cfg.NP() / 2
	res, _ := measureOverlap(e, msgSize, warmup, iters, meanTime,
		func(r *mpi.Rank, _ coll.Ops, p2p coll.P2P) (issue, wait func()) {
			me := r.RankID()
			base := (me / half) * half
			peer := base + (me-base+opt.PPN)%half
			sbuf := r.Alloc(msgSize)
			rbuf := r.Alloc(msgSize)
			reqs := make([]coll.Request, 2)
			return func() {
				reqs[0] = p2p.Irecv(rbuf.Addr(), msgSize, peer, 7)
				reqs[1] = p2p.Isend(sbuf.Addr(), msgSize, peer, 7)
			}, func() { p2p.WaitAll(reqs) }
		})
	res.Scheme = opt.Policy
	return res
}

// meanTime is the fleet reduction: the mean over ranks.
func meanTime(ts []sim.Time) sim.Time {
	var sum sim.Time
	for _, t := range ts {
		sum += t
	}
	return sum / sim.Time(len(ts))
}

// MeasureFleet produces the checked-in fleet snapshot: the fig13 guard
// points on an explicit homogeneous bf2 fleet plus the mixed-fleet policy
// table, all under one metrics registry.
func MeasureFleet(env SweepEnv) FleetSnapshot {
	env.Met = metrics.NewRegistry()
	s := FleetSnapshot{
		Schema: FleetSchema,
		Fleet:  fleetSpec,
		Config: BenchConfig{Nodes: fleetNodes, PPN: fleetPPN, Warmup: fleetWarmup,
			Iters: fleetIters, Scheme: "policy-p2p"},
		Size: fleetSize,
	}
	nh := len(fig13SnapshotPoints)
	s.Homogeneous = make([]BenchPoint, nh)
	s.Mixed = make([]FleetPoint, len(fleetPolicies))
	env.Sweep(nh+len(fleetPolicies), func(i int, env SweepEnv) {
		if i < nh {
			s.Homogeneous[i] = measureFig13Point(env, i, "bf2")
			return
		}
		pol := fleetPolicies[i-nh]
		opt := env.Attach(Options{Nodes: fleetNodes, PPN: fleetPPN, Scheme: baseline.NameProposed,
			Policy: pol, Fleet: fleetSpec})
		s.Mixed[i-nh] = FleetPoint{Policy: pol,
			Timings: timingsOf(MeasureFleetExchange(opt, fleetSize, fleetWarmup, fleetIters))}
	})
	s.Metrics = env.Met.Snapshot()
	return s
}

// loadFleet decodes a fleet snapshot and validates it against the fig13
// baseline stored next to it in dir.
func loadFleet(data []byte, dir string) (FleetSnapshot, error) {
	var s FleetSnapshot
	figData, err := os.ReadFile(filepath.Join(dir, "BENCH_fig13.json"))
	if err != nil {
		return s, fmt.Errorf("bench: the fleet snapshot validates against the fig13 baseline: %w", err)
	}
	fig, err := parse[BenchSnapshot](figData)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: invalid fleet snapshot JSON: %w", err)
	}
	return s, s.Validate(fig)
}

// point returns the mixed-table entry of one policy.
func (s FleetSnapshot) point(policy string) (FleetPoint, error) {
	for _, p := range s.Mixed {
		if p.Policy == policy {
			return p, nil
		}
	}
	return FleetPoint{}, fmt.Errorf("bench: fleet snapshot has no %q point", policy)
}

// Validate checks schema conformance and the two headline claims of the
// fleet bench:
//
//  1. Homogeneity: the fig13 guard configurations measured on an explicit
//     all-bf2 fleet are identical — field for field — to the checked-in
//     BENCH_fig13.json series. Naming the baseline device must be a no-op.
//  2. Crossover: on the mixed fleet, the capability-aware policy is at
//     least as fast as the best fixed path and strictly faster than the
//     capability-blind adaptive policy (which leaves the BlueField-3
//     senders' offload window on the table).
func (s FleetSnapshot) Validate(fig BenchSnapshot) error {
	if s.Schema != FleetSchema {
		return fmt.Errorf("bench: fleet schema %q, want %q", s.Schema, FleetSchema)
	}
	if s.Fleet == "" || s.Size <= 0 {
		return fmt.Errorf("bench: incomplete fleet snapshot (fleet %q, size %d)", s.Fleet, s.Size)
	}
	if s.Config.Nodes <= 0 || s.Config.PPN <= 0 || s.Config.Iters <= 0 {
		return fmt.Errorf("bench: incomplete fleet config %+v", s.Config)
	}
	if len(s.Homogeneous) != len(fig.Series) {
		return fmt.Errorf("bench: homogeneous section has %d points, fig13 has %d",
			len(s.Homogeneous), len(fig.Series))
	}
	for i, p := range s.Homogeneous {
		if p != fig.Series[i] {
			return fmt.Errorf("bench: homogeneous bf2 point %d diverged from fig13: %+v != %+v",
				i, p, fig.Series[i])
		}
	}
	aware, err := s.point("aware")
	if err != nil {
		return err
	}
	blind, err := s.point("adaptive")
	if err != nil {
		return err
	}
	for _, fixed := range []string{"hostdirect", "gvmi"} {
		p, err := s.point(fixed)
		if err != nil {
			return err
		}
		if aware.OverallNS > p.OverallNS {
			return fmt.Errorf("bench: aware overall %dns slower than fixed %s %dns on the mixed fleet",
				aware.OverallNS, fixed, p.OverallNS)
		}
	}
	if aware.OverallNS >= blind.OverallNS {
		return fmt.Errorf("bench: aware overall %dns not strictly faster than capability-blind adaptive %dns",
			aware.OverallNS, blind.OverallNS)
	}
	for _, p := range s.Mixed {
		if err := p.plausible(); err != nil {
			return fmt.Errorf("bench: fleet point %q: %w", p.Policy, err)
		}
	}
	return s.Metrics.Validate()
}
