// Package fabric models the interconnect of the simulated cluster with a
// LogGP-style cost model.
//
// Each node exposes two network endpoints: the host HCA port (ConnectX-class,
// driven by fast host cores) and the DPU port (BlueField-class, driven by
// slower ARM cores). Injecting a message of n bytes through an endpoint
// occupies it for Overhead + n/Bandwidth; the head of the message leaves
// after Overhead and arrives after the wire latency; the receiving endpoint
// serializes concurrent arrivals at its own bandwidth. Per-message Overhead
// is the knob that reproduces the paper's Figure 2/3 observation: DPU-driven
// transfers have near-identical latency but roughly half the small-message
// bandwidth of host-driven transfers, converging at large messages.
package fabric

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/span"
)

// Params describes one endpoint's injection characteristics.
type Params struct {
	// Overhead is the per-message cost paid by the endpoint before the
	// first byte is on the wire (driver + doorbell + WQE processing).
	Overhead sim.Time
	// GBps is the endpoint bandwidth in bytes per nanosecond
	// (== gigabytes per second).
	GBps float64
}

// XferTime returns the full endpoint occupancy of an n-byte message:
// per-message overhead plus serialization. Exported for schedulers that
// need to account wire service without performing a transfer (e.g. the
// multi-tenant proxy's fair-share pass accounting).
func (p Params) XferTime(n int) sim.Time {
	return p.Overhead + p.serialize(n)
}

// serialize returns the time to push n bytes through the endpoint.
func (p Params) serialize(n int) sim.Time {
	if p.GBps <= 0 {
		return 0
	}
	return sim.Time(float64(n) / p.GBps)
}

// Endpoint is one injection/reception port on the fabric.
type Endpoint struct {
	f    *Fabric
	name string
	node int
	par  Params

	txBusyUntil sim.Time
	rxBusyUntil sim.Time

	// Metric handles; nil (inert) when the fabric has no metrics registry.
	// The rx series count goodput only: messages actually handed to the
	// receiver. Corrupted messages (failed ICRC) occupy the port but land
	// in the discarded series instead.
	mMsgsTx, mBytesTx     *metrics.Counter
	mMsgsRx, mBytesRx     *metrics.Counter
	mMsgsDisc, mBytesDisc *metrics.Counter
	mMsgsDropped          *metrics.Counter
	mMsgsDelayed          *metrics.Counter
}

// Name returns the endpoint's diagnostic name.
func (e *Endpoint) Name() string { return e.name }

// Config holds fabric-wide latencies.
type Config struct {
	// WireLatency applies between endpoints on different nodes
	// (NIC-switch-NIC flight time).
	WireLatency sim.Time
	// LocalLatency applies between endpoints on the same node
	// (host HCA <-> DPU across the PCIe switch).
	LocalLatency sim.Time
	// LoopbackGBps is the serialization rate for same-node transfers:
	// NIC-loopback traffic rides the PCIe switch (Gen4 x16 class), not the
	// HDR wire, so it is faster than the port's line rate.
	LoopbackGBps float64
}

// DefaultConfig mirrors an HDR InfiniBand fat-tree with BlueField-2 DPUs.
func DefaultConfig() Config {
	return Config{
		WireLatency:  1 * sim.Microsecond,
		LocalLatency: 700 * sim.Nanosecond,
		LoopbackGBps: 28,
	}
}

// Endpoint parameter sets (host vs DPU port, per device generation) live
// in internal/device: injection characteristics are a property of the
// SmartNIC part, not of the fabric, and every consumer goes through a
// device.Profile. This package only defines the Params type and the
// fabric generations (DefaultConfig / NDRConfig).

// NDRConfig is the NDR-generation fabric: slightly lower switch latency, PCIe
// Gen5 loopback.
func NDRConfig() Config {
	return Config{
		WireLatency:  900 * sim.Nanosecond,
		LocalLatency: 600 * sim.Nanosecond,
		LoopbackGBps: 50,
	}
}

// Fabric connects endpoints and schedules deliveries on the kernel.
type Fabric struct {
	k   *sim.Kernel
	cfg Config
	eps []*Endpoint
	inj *fault.Injector   // nil = no fault injection
	met *metrics.Registry // nil = no metrics
	sp  *span.Collector   // nil = no span tracing
}

// New creates a fabric on kernel k.
func New(k *sim.Kernel, cfg Config) *Fabric {
	return &Fabric{k: k, cfg: cfg}
}

// Kernel returns the owning simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// SetInjector attaches a fault injector; nil disables injection. Every
// transfer then draws its fate from it (see TransferActionCtx).
func (f *Fabric) SetInjector(inj *fault.Injector) { f.inj = inj }

// SetMetrics attaches a metrics registry; nil disables metrics. Call it
// before creating endpoints — each endpoint binds its counter handles at
// creation time. Metrics never consume virtual time, so attaching a live
// registry cannot move any simulated timestamp.
func (f *Fabric) SetMetrics(m *metrics.Registry) { f.met = m }

// SetSpans attaches a span collector; nil disables tracing. Every transfer
// carrying a parent span then records an injection span on the sender port
// and a wire span for the flight. Span collection never consumes virtual
// time.
func (f *Fabric) SetSpans(c *span.Collector) { f.sp = c }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// NewEndpoint attaches a new port on the given node.
func (f *Fabric) NewEndpoint(name string, node int, par Params) *Endpoint {
	e := &Endpoint{f: f, name: name, node: node, par: par}
	if m := f.met; m.Enabled() {
		e.mMsgsTx = m.Counter("fabric", name, "msgs_tx")
		e.mBytesTx = m.Counter("fabric", name, "bytes_tx")
		e.mMsgsRx = m.Counter("fabric", name, "msgs_rx")
		e.mBytesRx = m.Counter("fabric", name, "bytes_rx")
		e.mMsgsDisc = m.Counter("fabric", name, "msgs_discarded")
		e.mBytesDisc = m.Counter("fabric", name, "bytes_discarded")
		e.mMsgsDropped = m.Counter("fabric", name, "msgs_dropped")
		e.mMsgsDelayed = m.Counter("fabric", name, "msgs_delayed")
	}
	f.eps = append(f.eps, e)
	return e
}

// Latency returns the flight latency between two endpoints.
func (f *Fabric) Latency(src, dst *Endpoint) sim.Time {
	if src.node == dst.node {
		return f.cfg.LocalLatency
	}
	return f.cfg.WireLatency
}

// TransferAction is TransferActionCtx with no parent span.
func (f *Fabric) TransferAction(src, dst *Endpoint, size int, act sim.Action) (txDone, arrive sim.Time, fate fault.Fate) {
	return f.TransferActionCtx(src, dst, size, act, 0)
}

// TransferActionCtx is the one way a message crosses the fabric: it injects
// size bytes from src to dst and schedules act (which may be nil) in handler
// context at the arrival time. It returns the time the sender endpoint is
// free again (local completion), the arrival time, and the fate drawn from
// the attached injector (FateDeliver without one). A dropped message
// occupies only the sender (arrive is 0); a corrupted one occupies both
// ports and is discarded by the receiver's ICRC check; act runs for neither,
// and fate.Lost() tells the caller to retransmit. A delayed message arrives
// DelaySpike late. With a collector attached, the injection and wire spans
// are recorded under parent, lost and delayed ones with a "fate" attribute.
// act is a pooled record, not a closure, so callers that recycle theirs
// (the verbs flights) schedule nothing on the heap. It may be called from
// process or handler context and never blocks.
func (f *Fabric) TransferActionCtx(src, dst *Endpoint, size int, act sim.Action, parent span.ID) (txDone, arrive sim.Time, fate fault.Fate) {
	if src == nil || dst == nil {
		panic("fabric: nil endpoint")
	}
	if size < 0 {
		panic(fmt.Sprintf("fabric: negative transfer size %d", size))
	}
	now := f.k.Now()
	fate = f.inj.FateFor()
	if fate != fault.FateDeliver && f.inj.Tracing() {
		f.inj.Note(now, span.ClassHCA, src.name, fate.String(),
			fmt.Sprintf("dst=%s size=%d", dst.name, size))
	}

	txPar, rxPar := src.par, dst.par
	if src.node == dst.node && f.cfg.LoopbackGBps > 0 {
		txPar.GBps, rxPar.GBps = f.cfg.LoopbackGBps, f.cfg.LoopbackGBps
	}

	start := now
	if src.txBusyUntil > start {
		start = src.txBusyUntil
	}
	txDone = start + txPar.Overhead + txPar.serialize(size)
	src.txBusyUntil = txDone
	src.mMsgsTx.Inc()
	src.mBytesTx.Add(int64(size))

	if fate == fault.FateDrop {
		// Lost on the wire: the receiver never sees it.
		src.mMsgsDropped.Inc()
		if f.sp.Enabled() {
			inj := f.sp.StartAt(parent, span.ClassHCA, src.name, "fabric", "inject", start)
			f.sp.AttrInt(inj, "size", int64(size))
			f.sp.AttrStr(inj, "fate", "drop")
			f.sp.EndAt(inj, txDone)
		}
		return txDone, 0, fate
	}

	headArrive := start + txPar.Overhead + f.Latency(src, dst)
	rxStart := headArrive
	if dst.rxBusyUntil > rxStart {
		rxStart = dst.rxBusyUntil
	}
	arrive = rxStart + rxPar.serialize(size)
	dst.rxBusyUntil = arrive

	if fate == fault.FateCorrupt {
		// Arrived but failed the ICRC check: occupies the port, then is
		// discarded without delivery. Counted as discard, not goodput.
		dst.mMsgsDisc.Inc()
		dst.mBytesDisc.Add(int64(size))
		if f.sp.Enabled() {
			inj := f.sp.StartAt(parent, span.ClassHCA, src.name, "fabric", "inject", start)
			f.sp.AttrInt(inj, "size", int64(size))
			f.sp.EndAt(inj, txDone)
			wire := f.sp.StartAt(parent, span.ClassWire, src.name+"->"+dst.name, "fabric", "wire", start+txPar.Overhead)
			f.sp.AttrInt(wire, "size", int64(size))
			f.sp.AttrStr(wire, "fate", "corrupt")
			f.sp.EndAt(wire, arrive)
		}
		return txDone, arrive, fate
	}
	dst.mMsgsRx.Inc()
	dst.mBytesRx.Add(int64(size))
	if fate == fault.FateDelay {
		// Switch-buffering excursion: delivery (not port occupancy) is late.
		// The port frees at the nominal time, so later messages on the same
		// port may overtake the delayed one; see DESIGN.md §6.
		dst.mMsgsDelayed.Inc()
		arrive += f.inj.Spike()
	}

	if f.sp.Enabled() {
		// Injection span: sender port occupied [start, txDone]. Wire span:
		// head leaves after the overhead, flight + receive serialization
		// end at arrive (including any delay spike).
		inj := f.sp.StartAt(parent, span.ClassHCA, src.name, "fabric", "inject", start)
		f.sp.AttrInt(inj, "size", int64(size))
		f.sp.EndAt(inj, txDone)
		wire := f.sp.StartAt(parent, span.ClassWire, src.name+"->"+dst.name, "fabric", "wire", start+txPar.Overhead)
		f.sp.AttrInt(wire, "size", int64(size))
		if fate == fault.FateDelay {
			f.sp.AttrStr(wire, "fate", "delay")
		}
		f.sp.EndAt(wire, arrive)
	}

	if act != nil {
		f.k.AtAction(arrive-now, act)
	}
	return txDone, arrive, fate
}
