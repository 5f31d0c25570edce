package core

import (
	"slices"
	"testing"
)

// FuzzDeliveries feeds a recvBarrier each source's delivery notifications —
// per of them a call, for five calls — in any order, each possibly repeated,
// interleaved with walked receive entries. After every step the barrier must
// agree with a reference that keeps one map entry per notification ever seen
// (the exactly-once rule as the crash path once kept it): a notification is
// new exactly when the map has not seen it, got counts the new ones, missing
// is Σ max(0, want−got), and the window holds only what it must: done is the
// number of leading calls whose notifications are all in, and early the
// notifications of later calls.
//
// The input's first byte picks 1–4 sources, the next one per source its
// receive entries per call (0–3; a source with none is never settled, so
// every one of its notifications stays in early). Each further byte b is one
// step: b%4 of 0 or 1 delivers a pending notification, 2 repeats one already
// delivered, 3 walks a receive entry; b/4 picks the source and which one.
func FuzzDeliveries(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		nsrc := 1 + int(data[0]%4)
		if len(data) < 1+nsrc {
			return
		}
		const calls = 5
		per := make([]int, nsrc)
		pending := make([][]earlyDlv, nsrc) // each source's undelivered notifications
		var b recvBarrier
		for s := range per {
			per[s] = int(data[1+s] % 4)
			b.cover(s)
			b.src[s].per = int32(per[s])
			for c := 1; c <= calls; c++ {
				for e := 0; e < max(per[s], 1); e++ {
					pending[s] = append(pending[s], earlyDlv{int32(s), int32(c), int32(2*e + 1)})
				}
			}
		}
		seen := make(map[earlyDlv]bool)
		var sent []earlyDlv
		want := make([]int, nsrc)
		for step, x := range data[1+nsrc:] {
			arg := int(x / 4)
			switch x % 4 {
			case 3:
				s := arg % nsrc
				b.expect(s)
				want[s]++
				continue
			case 2:
				if len(sent) == 0 {
					continue
				}
				d := sent[arg%len(sent)]
				if b.count(int(d.src), int(d.call), int(d.entry)) {
					t.Fatalf("step %d: repeated %+v counted as new", step, d)
				}
			default:
				s := arg % nsrc
				if len(pending[s]) == 0 {
					continue
				}
				i := (arg / nsrc) % len(pending[s])
				d := pending[s][i]
				pending[s] = slices.Delete(pending[s], i, i+1)
				if !b.count(int(d.src), int(d.call), int(d.entry)) {
					t.Fatalf("step %d: first delivery of %+v taken for a duplicate", step, d)
				}
				seen[d] = true
				sent = append(sent, d)
			}
			missing := 0
			for s := range nsrc {
				got, done := 0, 0
				for d := range seen {
					if int(d.src) == s {
						got++
					}
				}
				for per[s] > 0 && done < calls && !slices.ContainsFunc(pending[s], func(d earlyDlv) bool { return int(d.call) == done+1 }) {
					done++
				}
				early := 0
				for _, d := range b.early {
					if int(d.src) == s {
						if int(d.call) <= done || !seen[d] {
							t.Fatalf("step %d: early holds %+v, source %d done with %d calls", step, d, s, done)
						}
						early++
					}
				}
				beyond := 0
				for d := range seen {
					if int(d.src) == s && int(d.call) > done {
						beyond++
					}
				}
				c := b.src[s]
				if int(c.got) != got || int(c.done) != done || early != beyond {
					t.Fatalf("step %d: source %d got %d done %d early %d, reference %d %d %d",
						step, s, c.got, c.done, early, got, done, beyond)
				}
				missing += max(0, want[s]-got)
			}
			if b.missing != missing {
				t.Fatalf("step %d: missing = %d, Σ max(0, want−got) = %d", step, b.missing, missing)
			}
		}
	})
}
