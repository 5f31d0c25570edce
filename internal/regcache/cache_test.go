package regcache

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

func TestGetMissThenPutHit(t *testing.T) {
	c := New[string](4, 0, nil)
	if _, ok := c.Get(2, 0x1000, 64); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(2, 0x1000, 64, "mkey-a")
	v, ok := c.Get(2, 0x1000, 64)
	if !ok || v != "mkey-a" {
		t.Fatalf("Get = (%q, %v), want (mkey-a, true)", v, ok)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestRankIsolation(t *testing.T) {
	c := New[int](3, 0, nil)
	c.Put(0, 0x1000, 64, 10)
	c.Put(1, 0x1000, 64, 11)
	if v, _ := c.Get(0, 0x1000, 64); v != 10 {
		t.Fatalf("rank 0 = %d, want 10", v)
	}
	if v, _ := c.Get(1, 0x1000, 64); v != 11 {
		t.Fatalf("rank 1 = %d, want 11", v)
	}
	if _, ok := c.Get(2, 0x1000, 64); ok {
		t.Fatal("rank 2 should miss")
	}
}

func TestSizeDistinguishesEntries(t *testing.T) {
	c := New[int](1, 0, nil)
	c.Put(0, 0x1000, 64, 1)
	c.Put(0, 0x1000, 128, 2)
	if v, _ := c.Get(0, 0x1000, 64); v != 1 {
		t.Fatal("size-64 entry clobbered")
	}
	if v, _ := c.Get(0, 0x1000, 128); v != 2 {
		t.Fatal("size-128 entry missing")
	}
}

func TestPutReplaces(t *testing.T) {
	c := New[int](1, 0, nil)
	c.Put(0, 0x1000, 64, 1)
	c.Put(0, 0x1000, 64, 2)
	if n := len(c.slots[0]); n != 1 {
		t.Fatalf("slot holds %d entries, want 1", n)
	}
	if v, _ := c.Get(0, 0x1000, 64); v != 2 {
		t.Fatal("replacement lost")
	}
}

func TestGetOrCreate(t *testing.T) {
	c := New[int](1, 0, nil)
	calls := 0
	v, hit := c.GetOrCreate(0, 0x2000, 32, func() int { calls++; return 7 })
	if hit || v != 7 || calls != 1 {
		t.Fatalf("first GetOrCreate = (%d,%v), calls=%d", v, hit, calls)
	}
	v, hit = c.GetOrCreate(0, 0x2000, 32, func() int { calls++; return 8 })
	if !hit || v != 7 || calls != 1 {
		t.Fatalf("second GetOrCreate = (%d,%v), calls=%d", v, hit, calls)
	}
}

func TestNewRejectsCapacityAndEviction(t *testing.T) {
	for _, tc := range []struct {
		name    string
		perRank int
		onEvict func(int)
	}{
		{"capacity", 4, nil},
		{"eviction", 0, func(int) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted an option the cache does not honour")
				}
			}()
			New[int](1, tc.perRank, tc.onEvict)
		})
	}
}

// TestCacheAllocFree pins the index's allocation budget: a warm hit
// allocates nothing, and a slot's entries share storage that grows by
// doubling instead of one allocation per entry.
func TestCacheAllocFree(t *testing.T) {
	c := New[int](2, 0, nil)
	c.Put(1, 0x1000, 64, 1)
	create := func() int { return 2 }
	if n := testing.AllocsPerRun(100, func() {
		c.Get(1, 0x1000, 64)
		c.GetOrCreate(1, 0x1000, 64, create)
	}); n != 0 {
		t.Errorf("warm hit allocates %.0f times, want 0", n)
	}
	// Descending addresses: every insert lands at the front of the slot, the
	// order alltoall receive blocks register in.
	if n := testing.AllocsPerRun(1, func() {
		c := New[int](1, 0, nil)
		for i := 1000; i > 0; i-- {
			c.Put(0, mem.Addr(i*64), 64, i)
		}
	}); n > 16 {
		t.Errorf("1000 inserts into one slot allocate %.0f times, want <= 16", n)
	}
	// The same 1000 keys as one batch, over a fresh copy of a slot holding
	// every other one: three allocations build the cache, then one growth
	// of the slot. The batch's scratch is the caller's.
	var half []entry[int]
	for i := 2; i <= 1000; i += 2 {
		half = append(half, entry[int]{key{mem.Addr(i * 64), 64}, i})
	}
	ord, ref := make([]int32, 1000), make([]int32, 1000)
	keyOf := func(i int32) (mem.Addr, int) { return mem.Addr((1000 - i) * 64), 64 }
	if n := testing.AllocsPerRun(1, func() {
		c := New[int](1, 0, nil)
		c.slots[0] = slices.Clone(half)
		for i := range ord {
			ord[i] = int32(i)
		}
		b := c.Batch(0, ord, ref)
		b.Classify(keyOf)
		for i := range int32(1000) {
			b.Next(i, create)
		}
		b.Commit()
		if len(c.slots[0]) != 1000 {
			t.Fatalf("slot holds %d entries after the batch, want 1000", len(c.slots[0]))
		}
	}); n > 4 {
		t.Errorf("a 1000-key batch allocates %.0f times, want <= 4", n)
	}
}

// FuzzCache drives random Put/Get/GetOrCreate sequences over four slots and
// checks every answer, and the hit/miss counters, against a map model. Each
// op is two bytes: the first picks the operation and the slot, the second
// the address (16 choices) and the size (4 choices), so keys collide often.
//
// It then resolves batch — one install's keys in call order — over the
// cache the ops left behind, once through a Batch and once on a copy by
// sequential GetOrCreate, and checks the two agree on every value and hit,
// the counters, the order of the create calls and every slot's contents.
// batch[0] picks the slot; each further two bytes, little-endian, are a
// key: the low 14 bits the address in 64-byte blocks (the first 16 are the
// ops' addresses), the top two the size.
func FuzzCache(f *testing.F) {
	type ref struct {
		rank int
		addr mem.Addr
		size int
	}
	f.Fuzz(func(t *testing.T, ops, batch []byte) {
		const ranks = 4
		c := New[int](ranks, 0, nil)
		model := make(map[ref]int)
		var hits, misses int64
		for i := 0; i+1 < len(ops); i += 2 {
			r := ref{int(ops[i]/3) % ranks, mem.Addr(ops[i+1]%16) * 64, 64 * (1 + int(ops[i+1]/16)%4)}
			want, cached := model[r]
			switch ops[i] % 3 {
			case 0:
				c.Put(r.rank, r.addr, r.size, i)
				model[r] = i
				continue
			case 1:
				got, ok := c.Get(r.rank, r.addr, r.size)
				if ok != cached || got != want {
					t.Fatalf("op %d: Get%v = (%d, %v), model has (%d, %v)", i/2, r, got, ok, want, cached)
				}
			case 2:
				got, hit := c.GetOrCreate(r.rank, r.addr, r.size, func() int { return i })
				if !cached {
					want, model[r] = i, i
				}
				if hit != cached || got != want {
					t.Fatalf("op %d: GetOrCreate%v = (%d, %v), model has (%d, %v)", i/2, r, got, hit, want, cached)
				}
			}
			if cached {
				hits++
			} else {
				misses++
			}
		}
		if c.Hits != hits || c.Misses != misses {
			t.Fatalf("counters hits=%d misses=%d, model %d/%d", c.Hits, c.Misses, hits, misses)
		}
		n := 0
		for _, s := range c.slots {
			n += len(s)
		}
		if n != len(model) {
			t.Fatalf("cache holds %d entries, model %d", n, len(model))
		}

		if len(batch) == 0 {
			return
		}
		rank := int(batch[0]) % ranks
		var keys []key
		for i := 1; i+1 < len(batch); i += 2 {
			u := uint16(batch[i]) | uint16(batch[i+1])<<8
			keys = append(keys, key{mem.Addr(u&0x3fff) * 64, 64 * (1 + int(u>>14))})
		}
		seq := &Cache[int]{Hits: c.Hits, Misses: c.Misses}
		for _, s := range c.slots {
			seq.slots = append(seq.slots, slices.Clone(s))
		}
		var seqCreated, batchCreated []int
		ord, ref := make([]int32, len(keys)), make([]int32, len(keys))
		for i := range ord {
			ord[i] = int32(i)
		}
		b := c.Batch(rank, ord, ref)
		misses = seq.Misses
		classified := b.Classify(func(i int32) (mem.Addr, int) { return keys[i].addr, keys[i].size })
		for i, k := range keys {
			want, wantHit := seq.GetOrCreate(rank, k.addr, k.size, func() int {
				seqCreated = append(seqCreated, i)
				return -1 - i
			})
			got, hit := b.Next(int32(i), func() int {
				batchCreated = append(batchCreated, i)
				return -1 - i
			})
			if got != want || hit != wantHit {
				t.Fatalf("batch key %d %v: Next = (%d, %v), GetOrCreate (%d, %v)", i, k, got, hit, want, wantHit)
			}
		}
		b.Commit()
		if int64(classified) != seq.Misses-misses {
			t.Fatalf("Classify counted %d misses, GetOrCreate %d", classified, seq.Misses-misses)
		}
		if !slices.Equal(batchCreated, seqCreated) {
			t.Fatalf("batch created %v, GetOrCreate %v", batchCreated, seqCreated)
		}
		if c.Hits != seq.Hits || c.Misses != seq.Misses {
			t.Fatalf("batch counters hits=%d misses=%d, GetOrCreate %d/%d", c.Hits, c.Misses, seq.Hits, seq.Misses)
		}
		for r := range c.slots {
			if !slices.Equal(c.slots[r], seq.slots[r]) {
				t.Fatalf("slot %d after the batch: %v, after GetOrCreate: %v", r, c.slots[r], seq.slots[r])
			}
		}
	})
}
