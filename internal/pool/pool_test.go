package pool

import "testing"

type rec struct{ id int }

// FuzzPool runs a random sequence of Get and Put on a List against a map of
// the records handed out: no record is handed out while it is held, records
// come back in the reverse order of their Puts, the slab grows by one
// chunk only when every record carved so far is held, so the chunks
// allocated are ⌈peak live ÷ slabLen⌉, and Put allocates nothing.
//
// Each input byte is one step: a byte below 0x80 gets b+1 records, any other
// puts back the held record at index b mod the number held.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0x00, 0x80, 0x05, 0x81, 0x82})
	f.Add([]byte{0x7f, 0x7f, 0xff, 0xfe, 0x10, 0x7f})
	f.Fuzz(func(t *testing.T, steps []byte) {
		var l List[rec]
		held := map[*rec]bool{}
		var order []*rec // held records, in the order they were handed out
		var stack []*rec // put records not yet taken again, last on top
		made, peak, slabs := 0, 0, 0
		for _, b := range steps {
			if b >= 0x80 {
				if len(order) == 0 {
					continue
				}
				i := int(b) % len(order)
				x := order[i]
				order = append(order[:i], order[i+1:]...)
				delete(held, x)
				// A Put and the Get that takes the record back leave the list
				// as it was, so AllocsPerRun can repeat them.
				if a := testing.AllocsPerRun(1, func() { l.Put(x); l.Get() }); a != 0 {
					t.Fatalf("Put of record %d allocated %.0f objects, want 0", x.id, a)
				}
				l.Put(x)
				stack = append(stack, x)
				continue
			}
			for range int(b) + 1 {
				fresh := len(l.slab.rest) == 0 && len(stack) == 0
				x := l.Get()
				if held[x] {
					t.Fatalf("record %d handed out while held", x.id)
				}
				if n := len(stack); n > 0 {
					if x != stack[n-1] {
						t.Fatalf("got record %d, want %d, the last one put", x.id, stack[n-1].id)
					}
					stack = stack[:n-1]
				} else {
					if x.id != 0 {
						t.Fatalf("a record from the slab holds id %d, want a zeroed one", x.id)
					}
					made++
					x.id = made
					if fresh {
						slabs++
					}
					if want := (slabLen - made%slabLen) % slabLen; len(l.slab.rest) != want {
						t.Fatalf("after %d records the slab has %d left, want %d", made, len(l.slab.rest), want)
					}
				}
				held[x] = true
				order = append(order, x)
				peak = max(peak, len(held))
			}
		}
		if made != peak {
			t.Errorf("carved %d records for a peak of %d live", made, peak)
		}
		if want := (peak + slabLen - 1) / slabLen; slabs != want {
			t.Errorf("allocated %d slabs for a peak of %d live, want %d", slabs, peak, want)
		}
		set, distinct := l.Free()
		if !distinct || len(set) != len(stack) {
			t.Fatalf("Free: %d records (distinct %v), want the %d put back", len(set), distinct, len(stack))
		}
		for _, x := range stack {
			if !set[x] {
				t.Fatalf("Free is missing record %d", x.id)
			}
		}
	})
}

func TestFreeReportsDoublePut(t *testing.T) {
	var l List[rec]
	x := l.Get()
	l.Put(x)
	if _, distinct := l.Free(); !distinct {
		t.Fatal("one Put reported as a double free")
	}
	l.Put(x)
	if set, distinct := l.Free(); distinct || !set[x] {
		t.Fatalf("a record put twice: Free = %v, %v, want it reported", set, distinct)
	}
	// Put twice with another record between: the chain x → y → x → … is a
	// cycle, which the walk must stop at.
	var m List[rec]
	x, y := m.Get(), m.Get()
	m.Put(x)
	m.Put(y)
	m.Put(x)
	if set, distinct := m.Free(); distinct || !set[x] || !set[y] {
		t.Fatalf("a record put twice around another: Free = %v, %v, want it reported", set, distinct)
	}
}

// TestAppendDoubles pins the growth rule: a table filled one entry at a time
// to n entries is reallocated about log2(n) times, each time to at least
// twice its length, where the built-in append grows by a quarter past 256
// entries. Contents and order are append's.
func TestAppendDoubles(t *testing.T) {
	const n = 100_000
	var s []int32
	grows := 0
	for i := range n {
		c := cap(s)
		s = Append(s, int32(i))
		if cap(s) != c {
			grows++
			if cap(s) < 2*c+1 {
				t.Fatalf("at %d entries the table grew from %d to %d slots, want at least %d", i, c, cap(s), 2*c+1)
			}
		}
	}
	if want := 18; grows > want {
		t.Errorf("%d reallocations for %d entries, want at most %d", grows, n, want)
	}
	for i, v := range s {
		if v != int32(i) {
			t.Fatalf("entry %d holds %d", i, v)
		}
	}
}

// TestAppendReservedGrowsOnce pins the reserved rule: entries announced
// before the first of them arrives are added with one allocation, at the
// table's final size (rounded up to whole 8 KiB pages, 2 048 int32s), and
// once the count is spent the table doubles again.
func TestAppendReservedGrowsOnce(t *testing.T) {
	const n = 10_000
	s := make([]int32, 3)
	reserved := n - 3
	grows := 0
	for i := 3; i < n; i++ {
		c := cap(s)
		if s = AppendReserved(s, int32(i), &reserved); cap(s) != c {
			grows++
		}
	}
	if grows != 1 || cap(s) > n+2048 || reserved != 0 {
		t.Fatalf("%d announced entries: %d growths to %d slots, %d still reserved; want 1 growth to about %d, 0",
			n-3, grows, cap(s), reserved, n)
	}
	for len(s) < cap(s) {
		s = AppendReserved(s, 0, &reserved)
	}
	if c := cap(s); cap(AppendReserved(s, 0, &reserved)) < 2*c {
		t.Errorf("past the announced entries a full table of %d slots did not double", c)
	}
}
