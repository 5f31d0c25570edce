package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAllocAddressesDisjoint(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, true)
	b := s.Alloc(50, true)
	if a.Addr() == 0 || b.Addr() == 0 {
		t.Fatal("zero address allocated")
	}
	if b.Addr() < a.Addr()+Addr(a.Size()) {
		t.Fatalf("overlapping allocations: a=[%d,%d) b=%d", a.Addr(), a.Addr()+Addr(a.Size()), b.Addr())
	}
}

func TestLookupFindsContainingBuffer(t *testing.T) {
	s := NewSpace()
	s.Alloc(64, false)
	b := s.Alloc(256, true)
	s.Alloc(64, false)

	got, off := s.Lookup(b.Addr()+32, 100)
	if got != b || off != 32 {
		t.Fatalf("Lookup = (%v, %d), want (b, 32)", got, off)
	}
	if got, _ := s.Lookup(b.Addr()+200, 100); got != nil {
		t.Fatal("Lookup out-of-range succeeded")
	}
	if got, _ := s.Lookup(0, 8); got != nil {
		t.Fatal("Lookup at address 0 succeeded")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := NewSpace()
	b := s.Alloc(128, true)
	payload := []byte("the quick brown fox")
	s.WriteAt(b.Addr()+10, payload, len(payload))
	got := s.ReadAt(b.Addr()+10, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadAt = %q, want %q", got, payload)
	}
}

func TestSizeOnlyBufferDropsPayload(t *testing.T) {
	s := NewSpace()
	b := s.Alloc(128, false)
	s.WriteAt(b.Addr(), []byte("data"), 4)
	if got := s.ReadAt(b.Addr(), 4); got != nil {
		t.Fatalf("ReadAt on size-only buffer = %v, want nil", got)
	}
	if b.Backed() {
		t.Fatal("size-only buffer reports Backed")
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	s := NewSpace()
	b := s.Alloc(16, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Slice(10, 10)
}

// Property: any sequence of writes at random offsets within a backed buffer
// reads back exactly, and never affects neighbouring allocations.
func TestPropertyWriteIsolation(t *testing.T) {
	f := func(off uint8, val []byte) bool {
		s := NewSpace()
		guard1 := s.Alloc(64, true)
		b := s.Alloc(256+256, true)
		guard2 := s.Alloc(64, true)
		for i := range guard1.Bytes() {
			guard1.Bytes()[i] = 0xAA
			guard2.Bytes()[i] = 0xBB
		}
		if len(val) > 256 {
			val = val[:256]
		}
		s.WriteAt(b.Addr()+Addr(off), val, len(val))
		if !bytes.Equal(s.ReadAt(b.Addr()+Addr(off), len(val)), val) {
			return false
		}
		for _, g := range guard1.Bytes() {
			if g != 0xAA {
				return false
			}
		}
		for _, g := range guard2.Bytes() {
			if g != 0xBB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupExactBoundaries(t *testing.T) {
	s := NewSpace()
	b := s.Alloc(128, false)
	if got, off := s.Lookup(b.Addr(), 128); got != b || off != 0 {
		t.Fatal("full-range lookup failed")
	}
	if got, _ := s.Lookup(b.Addr()+127, 1); got != b {
		t.Fatal("last-byte lookup failed")
	}
	if got, _ := s.Lookup(b.Addr()+128, 1); got != nil {
		t.Fatal("one-past-end lookup succeeded")
	}
}
