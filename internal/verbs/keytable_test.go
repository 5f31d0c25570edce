package verbs

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

// The dense key table must resolve exactly what the map it replaced
// resolved: an lkey and its rkey reach the same region, everything else —
// keys below the first, past the last, or of a deregistered region — is
// ErrBadKey, and range checks still apply.
func TestKeyTableResolvesLikeTheMap(t *testing.T) {
	rg := newRig(1)
	r, c := rg.r, rg.ctx[0]
	a := r.InsertForeignMR(c, rg.sp[0], 0x1000, 64)
	b := r.InsertForeignMR(c, rg.sp[0], 0x2000, 64)
	if a.LKey()%2 != 0 || a.RKey() != a.LKey()+1 || b.LKey() != a.LKey()+2 {
		t.Fatalf("keys a=%d/%d b=%d/%d: want even lkeys two apart, rkey = lkey+1", a.LKey(), a.RKey(), b.LKey(), b.RKey())
	}
	for _, mr := range []*MR{a, b} {
		for _, k := range []Key{mr.LKey(), mr.RKey()} {
			if got, err := r.lookupKey(k, mr.Addr()+8, 56); got != mr || err != nil {
				t.Errorf("lookupKey(%d) = %v, %v; want the region", k, got, err)
			}
			if _, err := r.lookupKey(k, mr.Addr()+8, 64); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("lookupKey(%d) past the end: %v, want ErrOutOfRange", k, err)
			}
			if _, err := r.lookupKey(k, mr.Addr()-1, 8); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("lookupKey(%d) before the start: %v, want ErrOutOfRange", k, err)
			}
		}
	}
	for _, k := range []Key{0, 1, 100, 101, b.RKey() + 1, b.RKey() + 2, 9999, ^Key(0)} {
		if _, err := r.lookupKey(k, 0x1000, 8); !errors.Is(err, ErrBadKey) {
			t.Errorf("lookupKey(%d): %v, want ErrBadKey", k, err)
		}
	}
	a.Deregister()
	for _, k := range []Key{a.LKey(), a.RKey()} {
		if _, err := r.lookupKey(k, 0x1000, 8); !errors.Is(err, ErrBadKey) {
			t.Errorf("lookupKey(%d) after Deregister: %v, want ErrBadKey", k, err)
		}
	}
	if got, err := r.lookupKey(b.RKey(), 0x2000, 64); got != b || err != nil {
		t.Errorf("neighbour of a deregistered region: %v, %v", got, err)
	}
	a.Deregister() // twice is harmless
}

// Keys are never handed out twice, so a stale key can never reach a region
// registered later.
func TestKeyTableNeverReusesAKey(t *testing.T) {
	rg := newRig(1)
	r, c := rg.r, rg.ctx[0]
	first := r.InsertForeignMR(c, rg.sp[0], 0x1000, 64)
	last := first.RKey()
	first.Deregister()
	for i := 0; i < 100_000; i++ {
		mr := r.InsertForeignMR(c, rg.sp[0], mem.Addr(0x1000+i), 64)
		if mr.LKey() <= last {
			t.Fatalf("cycle %d: lkey %d reuses or precedes %d", i, mr.LKey(), last)
		}
		last = mr.RKey()
		mr.Deregister()
	}
	if _, err := r.lookupKey(first.LKey(), 0x1000, 8); !errors.Is(err, ErrBadKey) {
		t.Errorf("first key after 1e5 cycles: %v, want ErrBadKey", err)
	}
}

func TestLookupKeyAllocFree(t *testing.T) {
	rg := newRig(1)
	mr := rg.r.InsertForeignMR(rg.ctx[0], rg.sp[0], 0x1000, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := rg.r.lookupKey(mr.RKey(), 0x1800, 1024); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("lookupKey allocated %.2f objects per call, want 0", allocs)
	}
}
