// The Aware policy is the capability-aware Adaptive: same size/op-class
// shape, but the host-vs-offload cutoff is scaled per device. The blind
// Adaptive reuses the MPI eager threshold (SmallMsgCutoff, 16KiB) as its
// offload cutoff, which overshoots where the proxy hop actually breaks
// even once communication/compute overlap is in play: a proxied transfer
// frees the host CPU, so offload pays off well below the eager threshold
// (around 8KiB for the BlueField-2 part under the OMB overlap
// methodology — see the fleet bench). A part with a cheaper DPU-side
// injection (BlueField-3's 350ns vs 600ns) amortizes the hop at smaller
// payloads still, so its cutoff moves down proportionally to the port
// overhead ratio. On a mixed fleet that spread is exactly the margin a
// blind rule leaves on the table: at 6KiB the blind Adaptive keeps every
// transfer on the host, Aware offloads the ones whose sender is a
// BlueField-3 node (cutoff 5430) while keeping BlueField-2 senders
// (cutoff 8192) on the host — the empirically faster choice on both.
//
// Rank consistency holds for the same reason Adaptive's does: the rule is
// a deterministic function of (class, size, locality, caps), and the
// caller supplies caps every participant can compute — the fleet merge
// for collectives, the sender's node profile for point-to-point (the
// receiver derives the sender's node from the source rank).
package policy

import (
	"repro/internal/datapath"
	"repro/internal/device"
	"repro/internal/sim"
)

// AwareAnchor is the host-vs-offload breakeven payload of the baseline
// BlueField-2 part under communication/compute overlap: above it a proxied
// transfer's freed host CPU beats the host path's lower wire latency.
// Half the eager threshold — offload amortizes earlier than eager RDMA
// stops, because the proxy hop costs wire time but no host CPU time.
const AwareAnchor = 8 << 10

// ScaledCutoff returns the host-vs-offload payload cutoff for a device:
// the baseline breakeven anchor scaled by the profile's port overhead
// ratio relative to the baseline part the anchor was calibrated on.
// Computed in integer space so every rank rounds identically. Profiles
// with degenerate port parameters (and the baseline itself) get the
// unscaled anchor.
func ScaledCutoff(p device.Profile) int {
	base := device.Baseline()
	num := int64(p.DPUPort.Overhead) * int64(base.HostPort.Overhead)
	den := int64(p.HostPort.Overhead) * int64(base.DPUPort.Overhead)
	if num <= 0 || den <= 0 {
		return AwareAnchor
	}
	return int(int64(AwareAnchor) * num / den)
}

// Aware is the capability-aware static policy: Adaptive's rule shape with
// the per-device cutoff, falling back to the blind rule when a request
// carries no capabilities.
type Aware struct{}

// Name implements Policy.
func (Aware) Name() string { return "aware" }

// Decide implements Policy.
func (Aware) Decide(q Request) Decision {
	if q.Caps == nil {
		return sizeRule(q, SmallMsgCutoff)
	}
	return sizeRule(q, ScaledCutoff(*q.Caps))
}

// Observe implements Policy.
func (Aware) Observe(Request, datapath.Kind, sim.Time) {}
