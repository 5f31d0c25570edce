package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/sim"
)

// crashOutcomesHash is the sha256 of every outcome TestCrashAtAnyInstant
// checks, over all of its runs.
const crashOutcomesHash = "9fd5d82a1c5bf6e0f25794b85acaeb47dafcd9a21912a8d2bcb039a1b2480584"

// A crash drops exactly the proxy work that was still to come at its
// instant — including work due at that very instant but scheduled after the
// crash — so the outcome of every run of TestCrashAtAnyInstant's sweep is
// frozen: its end time, the RDMA writes proxies and fallback hosts posted,
// the failovers and the payload verdict, hashed in sweep order.
func TestCrashOutcomesFrozen(t *testing.T) {
	t.Parallel()
	const size, instants = 8192, 200
	h := sha256.New()
	for _, scheme := range []string{baseline.NameProposed, baseline.NameBluesMPI} {
		base := MeasureChaosIalltoall(smallCrashOpt(scheme, nil), 0, size, 1, 2)
		for _, after := range []sim.Time{sim.Microsecond, 10 * sim.Microsecond} {
			for k := 1; k < instants; k++ {
				at := base.EndTime * sim.Time(k) / instants
				r := MeasureChaosIalltoall(smallCrashOpt(scheme, crashRestartAfter(at, after)), 0, size, 1, 2)
				fmt.Fprintf(h, "%s %d %d %d %d %d %d %v\n", scheme, after, at, r.EndTime,
					r.Core.RDMAWrites, r.Core.FallbackWrites, r.Core.Failovers, r.Verified)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != crashOutcomesHash {
		t.Errorf("crash outcomes hash %s, want %s", got, crashOutcomesHash)
	}
}
