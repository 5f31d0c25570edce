package bench

import (
	"bytes"
	"testing"

	"repro/internal/baseline"
	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/span"
)

// Frozen fig13 measurement values for the seed configuration (Proposed,
// 2 nodes x 4 PPN, warmup 1, iters 2). The fault/reliability subsystem must
// not move these by a single nanosecond when no fault plan is attached —
// and neither may a rate-zero plan.
const (
	guardPure8K    = sim.Time(52508)
	guardOverall8K = sim.Time(53953)

	guardPure64K    = sim.Time(160049)
	guardOverall64K = sim.Time(171051)

	guardPure4KBacked    = sim.Time(44841)
	guardOverall4KBacked = sim.Time(45603)
)

func guardOpt() Options {
	return Options{Nodes: 2, PPN: 4, Scheme: baseline.NameProposed}
}

// Zero-overhead guard: with no fault plan the timings are bit-identical to
// the values captured before the fault subsystem existed.
func TestFig13TimingsBitIdenticalToSeed(t *testing.T) {
	t.Parallel()
	r := MeasureIalltoall(guardOpt(), 8192, 1, 2)
	if r.PureComm != guardPure8K || r.Overall != guardOverall8K {
		t.Fatalf("8K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure8K, guardOverall8K)
	}
	r = MeasureIalltoall(guardOpt(), 65536, 1, 2)
	if r.PureComm != guardPure64K || r.Overall != guardOverall64K {
		t.Fatalf("64K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure64K, guardOverall64K)
	}
	opt := guardOpt()
	opt.Backed = true
	r = MeasureIalltoall(opt, 4096, 1, 2)
	if r.PureComm != guardPure4KBacked || r.Overall != guardOverall4KBacked {
		t.Fatalf("backed 4K timings moved: pure=%d overall=%d, want %d/%d",
			r.PureComm, r.Overall, guardPure4KBacked, guardOverall4KBacked)
	}
}

// A rate-zero fault plan must take the silent fast paths: same timings as
// no plan at all, for both a nil config and Scaled(seed, 0), on the
// baseline part (the frozen guards) and on bf3, where a chaos run must time
// what MeasureIalltoall times on the same Options.
func TestRateZeroChaosMatchesFig13Exactly(t *testing.T) {
	t.Parallel()
	bf3 := guardOpt()
	bf3.Device = "bf3"
	want := MeasureIalltoall(bf3, 8192, 1, 2)
	if want.PureComm == guardPure8K || want.Overall == guardOverall8K {
		t.Fatalf("bf3 times the bf2 guards: pure=%d overall=%d", want.PureComm, want.Overall)
	}
	for _, c := range []struct {
		opt           Options
		pure, overall sim.Time
	}{
		{guardOpt(), guardPure8K, guardOverall8K},
		{bf3, want.PureComm, want.Overall},
	} {
		for _, fcfg := range []*fault.Config{nil, fault.Scaled(42, 0)} {
			opt := c.opt
			opt.Fault = fcfg
			r := MeasureChaosIalltoall(opt, 0, 8192, 1, 2)
			if r.PureComm != c.pure || r.Overall != c.overall {
				t.Fatalf("device %q cfg=%+v: pure=%d overall=%d, want %d/%d",
					opt.Device, fcfg, r.PureComm, r.Overall, c.pure, c.overall)
			}
			if !r.Verified || r.Mismatches != 0 {
				t.Fatalf("device %q cfg=%+v: payload verification failed (%d mismatches)", opt.Device, fcfg, r.Mismatches)
			}
			if r.Fault != (fault.Stats{}) {
				t.Fatalf("device %q cfg=%+v: silent plan injected faults: %+v", opt.Device, fcfg, r.Fault)
			}
		}
	}
}

// An attached injector that injects nothing costs no allocations: the
// retry machinery rides the same pooled records as a run without one, so a
// rate-zero 4×8-rank 16 KiB chaos run allocates within 10 % of the objects
// of the same run with no plan, and ends at the same virtual time.
func TestRateZeroChaosAllocFree(t *testing.T) {
	opt := Options{Nodes: 4, PPN: 8, Scheme: baseline.NameProposed}
	run := func(fcfg *fault.Config) (float64, sim.Time) {
		var end sim.Time
		opt.Fault = fcfg
		allocs := testing.AllocsPerRun(1, func() {
			end = MeasureChaosIalltoall(opt, 0, 16384, 2, 6).EndTime
		})
		return allocs, end
	}
	bare, bareEnd := run(nil)
	silent, silentEnd := run(fault.Scaled(42, 0))
	if bareEnd != silentEnd {
		t.Fatalf("rate-zero plan ends at %d, no plan at %d", silentEnd, bareEnd)
	}
	t.Logf("objects allocated: %.0f with no plan, %.0f with a rate-zero plan (%.2fx)", bare, silent, silent/bare)
	if silent > 1.1*bare {
		t.Fatalf("a rate-zero plan allocated %.0f objects, %.2fx the %.0f of no plan (budget 1.1x)", silent, silent/bare, bare)
	}
}

// The acceptance sweep: every rate completes with verified payloads; the
// rate-0 row equals fig13; the top rate actually injects and retries.
func TestChaosSweepAllRatesVerified(t *testing.T) {
	t.Parallel()
	rates := []float64{0, 1e-4, 1e-3, 1e-2}
	results := ChaosSweep(SweepEnv{}, guardOpt(), 42, rates, 8192, 1, 2)
	if len(results) != len(rates) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if !r.Verified {
			t.Fatalf("rate %g: %d payload mismatches", rates[i], r.Mismatches)
		}
	}
	if r0 := results[0]; r0.PureComm != guardPure8K || r0.Overall != guardOverall8K {
		t.Fatalf("rate-0 row diverged from fig13: pure=%d overall=%d", r0.PureComm, r0.Overall)
	}
	top := results[len(results)-1]
	injected := top.Fault.Drops + top.Fault.Corrupts + top.Fault.Delays + top.Fault.CQErrors
	if injected == 0 {
		t.Fatalf("rate 1e-2 injected nothing: %+v", top.Fault)
	}
	if top.Fault.Retries == 0 {
		t.Fatalf("drops/CQEs without retries: %+v", top.Fault)
	}
	if top.Fault.Exhausted != 0 {
		t.Fatalf("retry budget exhausted during sweep: %+v", top.Fault)
	}
	if top.Overall <= results[0].Overall {
		t.Fatalf("faults at 1e-2 did not degrade overall time: %d <= %d",
			top.Overall, results[0].Overall)
	}
}

// Determinism regression: the same chaos scenario run twice with the same
// seed produces byte-identical span records (every interval, parent link,
// attribute and noted fault) and identical timings and fault counters.
func TestChaosRunsAreDeterministic(t *testing.T) {
	t.Parallel()
	run := func() (ChaosResult, []byte) {
		opt := guardOpt()
		opt.Spans = span.New(0)
		opt.Fault = fault.Scaled(7, 1e-2)
		r := MeasureChaosIalltoall(opt, 1e-2, 8192, 1, 2)
		var buf bytes.Buffer
		if err := opt.Spans.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	a, ja := run()
	b, jb := run()
	if a.PureComm != b.PureComm || a.Overall != b.Overall || a.EndTime != b.EndTime {
		t.Fatalf("timings diverged: %d/%d/%d vs %d/%d/%d",
			a.PureComm, a.Overall, a.EndTime, b.PureComm, b.Overall, b.EndTime)
	}
	if a.Fault != b.Fault {
		t.Fatalf("fault stats diverged: %+v vs %+v", a.Fault, b.Fault)
	}
	if len(ja) == 0 {
		t.Fatal("no spans recorded")
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("span records diverged: %d vs %d bytes", len(ja), len(jb))
	}
}

// Every kind of fault a chaos run counted is also in its span export: one
// instantaneous fault-layer span per counted event, named after the kind.
func TestChaosExportsAFaultSpanPerCountedFault(t *testing.T) {
	t.Parallel()
	fcfg := fault.Scaled(7, 5e-2)
	fcfg.RegFailRate = 0.2
	fcfg.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond, RestartAfter: 15 * sim.Microsecond}}
	opt := guardOpt()
	opt.ProxiesPerDPU, opt.Fault = 1, fcfg
	sc, r := CollectChaosSpans(opt, 5e-2, 8192, 1, 2)
	if !r.Verified {
		t.Fatalf("%d payload mismatches", r.Mismatches)
	}
	for _, c := range []struct {
		name  string
		count int64
	}{
		{"drop", r.Fault.Drops}, {"corrupt", r.Fault.Corrupts}, {"delay", r.Fault.Delays},
		{"cq-error", r.Fault.CQErrors}, {"reg-fail", r.Fault.RegFails},
		{"retry", r.Fault.Retries}, {"retry-exhausted", r.Fault.Exhausted},
		{"crash", r.Fault.Crashes}, {"restart", r.Fault.Restarts},
	} {
		if c.name != "retry-exhausted" && c.count == 0 {
			t.Errorf("plan injected no %s; the check below is vacuous", c.name)
		}
		ids := sc.RootsNamed("fault", c.name)
		if int64(len(ids)) != c.count {
			t.Errorf("%d fault/%s spans for %d counted", len(ids), c.name, c.count)
		}
		for _, id := range ids {
			if s, _ := sc.Get(id); !s.Ended || s.End != s.Begin || s.Class == span.ClassNone || len(s.Attrs) != 1 {
				t.Errorf("fault/%s span %+v is not an instantaneous, classed, detailed record", c.name, s)
			}
		}
	}
}

// Killing a proxy mid-group-offload: every rank it served fails over to
// host-progressed execution, all payloads still arrive intact, and the
// span record notes crash -> heartbeat-loss -> failover in causal order.
func TestProxyCrashFailsOverWithCorrectPayloads(t *testing.T) {
	t.Parallel()
	fcfg := fault.DefaultConfig(1)
	fcfg.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond}}
	opt := Options{
		Nodes: 2, PPN: 2, Scheme: baseline.NameProposed,
		Backed: true, ProxiesPerDPU: 1, Fault: fcfg,
		Spans: span.New(0),
	}
	e := Build(opt)
	np := e.Cl.Cfg.NP()
	const msgSize = 8192
	const iters = 3
	mismatches := make([]int, np)

	e.Launch(func(r *mpi.Rank, ops coll.Ops, _ coll.P2P) {
		me := r.RankID()
		sp := r.Space()
		send := r.Alloc(np * msgSize)
		recv := r.Alloc(np * msgSize)
		for seq := 0; seq < iters; seq++ {
			blk := make([]byte, msgSize)
			for dst := 0; dst < np; dst++ {
				for i := range blk {
					blk[i] = chaosPattern(me, dst, seq, i)
				}
				sp.WriteAt(send.Addr()+mem.Addr(dst*msgSize), blk, msgSize)
			}
			q := ops.Ialltoall(0, send.Addr(), recv.Addr(), msgSize)
			r.Compute(20 * sim.Microsecond) // keep the collective in flight across the crash
			ops.Wait(q)
			for src := 0; src < np; src++ {
				got := sp.ReadAt(recv.Addr()+mem.Addr(src*msgSize), msgSize)
				ok := got != nil
				for i := 0; ok && i < msgSize; i++ {
					if got[i] != chaosPattern(src, me, seq, i) {
						ok = false
					}
				}
				if !ok {
					mismatches[me]++
				}
			}
			r.Barrier()
		}
	})

	for me, m := range mismatches {
		if m != 0 {
			t.Errorf("rank %d: %d corrupted blocks after failover", me, m)
		}
	}
	if e.Cl.Inj.Stats.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", e.Cl.Inj.Stats.Crashes)
	}
	st := e.Fw.Stats()
	if st.Failovers != 2 {
		t.Fatalf("Failovers = %d, want 2 (both ranks of node 0)", st.Failovers)
	}
	if st.FallbackGroupCalls == 0 || st.FallbackWrites == 0 {
		t.Fatalf("no fallback execution recorded: %+v", st)
	}

	// The fault spans must show the causal chain in order (IDs are creation
	// order, so ID order is the order the events were noted in).
	first := map[string]span.ID{}
	at := map[string]sim.Time{}
	for _, action := range []string{"crash", "heartbeat-loss", "failover"} {
		ids := opt.Spans.RootsNamed("fault", action)
		if len(ids) == 0 {
			t.Fatalf("no fault/%s span among %d spans", action, opt.Spans.Len())
		}
		s, _ := opt.Spans.Get(ids[0])
		first[action], at[action] = s.ID, s.Begin
	}
	if !(first["crash"] < first["heartbeat-loss"] && first["heartbeat-loss"] < first["failover"]) {
		t.Fatalf("causal order violated: crash#%d hb-loss#%d failover#%d",
			first["crash"], first["heartbeat-loss"], first["failover"])
	}
	if at["heartbeat-loss"] < at["crash"]+fcfg.HeartbeatTimeout {
		t.Fatalf("heartbeat loss declared after %v, before the %v timeout elapsed",
			at["heartbeat-loss"]-at["crash"], fcfg.HeartbeatTimeout)
	}
}

// A crashed proxy that restarts comes back with empty state; hosts that
// already failed over stay on the fallback path and payloads stay correct.
func TestProxyCrashWithRestartStillCorrect(t *testing.T) {
	t.Parallel()
	fcfg := fault.DefaultConfig(2)
	fcfg.Crashes = []fault.Crash{{Proxy: 0, At: 10 * sim.Microsecond, RestartAfter: 15 * sim.Microsecond}}
	opt := Options{
		Nodes: 2, PPN: 2, Scheme: baseline.NameProposed,
		Backed: true, ProxiesPerDPU: 1, Fault: fcfg,
	}
	r := MeasureChaosIalltoall(opt, 0, 8192, 1, 2)
	if !r.Verified {
		t.Fatalf("%d payload mismatches across crash+restart", r.Mismatches)
	}
	if r.Fault.Crashes != 1 || r.Fault.Restarts != 1 {
		t.Fatalf("crash/restart not executed: %+v", r.Fault)
	}
}

// smallCrashOpt is the crash cases' shape under plan: 2 nodes x 2 PPN, one
// proxy per DPU, so proxy 0 serves both ranks of node 0.
func smallCrashOpt(scheme string, plan *fault.Config) Options {
	return Options{Nodes: 2, PPN: 2, Scheme: scheme, ProxiesPerDPU: 1, Fault: plan}
}

// crashRestartPlan crashes proxy 0 at `at` and restarts it one microsecond
// later.
func crashRestartPlan(at sim.Time) *fault.Config {
	return crashRestartAfter(at, sim.Microsecond)
}

// crashRestartAfter crashes proxy 0 at `at` and restarts it `after` later.
func crashRestartAfter(at, after sim.Time) *fault.Config {
	plan := fault.DefaultConfig(2)
	plan.Crashes = []fault.Crash{{Proxy: 0, At: at, RestartAfter: after}}
	return plan
}

// rerunByRestart returns the group_exec spans proxy 0 began at or after its
// restart for a call (root span and call number) that a host fallback also
// ran: the calls two executors walked.
func rerunByRestart(sc *span.Collector, restart sim.Time) []span.Span {
	type call struct {
		root span.ID
		n    int64
	}
	callOf := func(s span.Span) call {
		for _, a := range s.Attrs {
			if a.Key == "call" {
				return call{s.Parent, a.Int}
			}
		}
		return call{s.Parent, 0}
	}
	fellBack := make(map[call]bool)
	for _, s := range sc.Spans() {
		if s.Name == "fallback_exec" {
			fellBack[callOf(s)] = true
		}
	}
	var twice []span.Span
	for _, s := range sc.Spans() {
		if s.Name == "group_exec" && s.Entity == "proxy0" && s.Begin >= restart && fellBack[callOf(s)] {
			twice = append(twice, s)
		}
	}
	return twice
}

// A group install the hosts post while proxy 0 is down reaches it after its
// restart, 10 µs after a crash at 7 763 ns. The restarted proxy refuses it, so
// the hosts' fallback is the only executor of the call; a proxy that installed
// it would walk each of those calls beside the failed-over hosts.
func TestRestartedProxyRefusesStaleInstall(t *testing.T) {
	t.Parallel()
	const at, after = 7763 * sim.Nanosecond, 10 * sim.Microsecond
	sc, r := CollectChaosSpans(smallCrashOpt(baseline.NameProposed, crashRestartAfter(at, after)), 0, 8192, 1, 2)
	if !r.Verified || r.Fault.Restarts != 1 || r.Core.Failovers != 2 {
		t.Fatalf("verified=%v restarts=%d failovers=%d, want true 1 2", r.Verified, r.Fault.Restarts, r.Core.Failovers)
	}
	for _, s := range rerunByRestart(sc, at+after) {
		t.Errorf("restarted proxy 0 began group_exec span %d (root %d) at %v for a call a host fallback also ran", s.ID, s.Parent, s.Begin)
	}
}

// A crashed proxy is dead at once, even when the crash lands while it is
// parked mid-round: neither it nor its DPU's NIC starts any work before the
// restart. (At 64 860 ns proxy 0 is inside a round of host 1's group call 2;
// a proxy that finished that round injected two control packets while dead.)
func TestDeadProxyStartsNoSpan(t *testing.T) {
	t.Parallel()
	const crashAt = 64860 * sim.Nanosecond
	sc, r := CollectChaosSpans(smallCrashOpt(baseline.NameProposed, crashRestartPlan(crashAt)), 0, 8192, 1, 2)
	if !r.Verified || r.Fault.Crashes != 1 || r.Fault.Restarts != 1 {
		t.Fatalf("verified=%v crashes=%d restarts=%d, want true 1 1", r.Verified, r.Fault.Crashes, r.Fault.Restarts)
	}
	for _, s := range sc.Spans() {
		if (s.Entity == "proxy0" || s.Entity == "n0.dpu") && s.Begin > crashAt && s.Begin < crashAt+sim.Microsecond {
			t.Errorf("dead proxy 0 began %s/%s on %s at %v", s.Layer, s.Name, s.Entity, s.Begin)
		}
	}
}

// A proxy crash with a restart 1 µs or 10 µs later, at any of 199 instants
// across the run, on the cached (Proposed) and uncached (BluesMPI) group
// paths: every payload arrives, no call is executed twice by the proxies or
// by the restarted proxy and a host fallback, and the run ends within half
// again of the fault-free end.
func TestCrashAtAnyInstant(t *testing.T) {
	t.Parallel()
	const size, instants = 8192, 200
	for _, scheme := range []string{baseline.NameProposed, baseline.NameBluesMPI} {
		base := MeasureChaosIalltoall(smallCrashOpt(scheme, nil), 0, size, 1, 2)
		if !base.Verified || base.Core.RDMAWrites != 60 {
			t.Fatalf("%s fault-free: verified=%v writes=%d, want true 60", scheme, base.Verified, base.Core.RDMAWrites)
		}
		for _, after := range []sim.Time{sim.Microsecond, 10 * sim.Microsecond} {
			for k := 1; k < instants; k++ {
				at := base.EndTime * sim.Time(k) / instants
				sc, r := CollectChaosSpans(smallCrashOpt(scheme, crashRestartAfter(at, after)), 0, size, 1, 2)
				twice := rerunByRestart(sc, at+after)
				switch {
				case !r.Verified:
					t.Errorf("%s crash at %v, restart %v later: %d payload mismatches", scheme, at, after, r.Mismatches)
				case r.Core.RDMAWrites > base.Core.RDMAWrites:
					t.Errorf("%s crash at %v, restart %v later: proxies posted %d RDMA writes, fault-free %d", scheme, at, after, r.Core.RDMAWrites, base.Core.RDMAWrites)
				case len(twice) > 0:
					t.Errorf("%s crash at %v, restart %v later: the restarted proxy and a host fallback both ran %d calls", scheme, at, after, len(twice))
				case 2*r.EndTime > 3*base.EndTime:
					t.Errorf("%s crash at %v, restart %v later: ends at %v, fault-free %v", scheme, at, after, r.EndTime, base.EndTime)
				}
			}
		}
	}
}

func BenchmarkFig13Ialltoall8K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := MeasureIalltoall(guardOpt(), 8192, 1, 2)
		if r.PureComm != guardPure8K {
			b.Fatalf("timing moved: %d", r.PureComm)
		}
	}
}

func BenchmarkChaosIalltoall8K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := guardOpt()
		opt.Fault = fault.Scaled(42, 1e-2)
		r := MeasureChaosIalltoall(opt, 1e-2, 8192, 1, 2)
		if !r.Verified {
			b.Fatal("payload mismatch")
		}
	}
}
