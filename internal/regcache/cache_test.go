package regcache

import (
	"math/rand"
	"testing"
	"testing/quick"

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
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
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

func TestLRUEviction(t *testing.T) {
	var evicted []int
	c := New[int](1, 3, func(v int) { evicted = append(evicted, v) })
	for i := 0; i < 5; i++ {
		c.Put(0, mem.Addr(0x1000+i*64), 64, i)
	}
	if c.shards[0].n != 3 {
		t.Fatalf("RankLen = %d, want 3", c.shards[0].n)
	}
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Fatalf("evicted %v, want [0 1]", evicted)
	}
	if c.Evictions != 2 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
}

func TestLRUOrderUpdatedByGet(t *testing.T) {
	var evicted []int
	c := New[int](1, 2, func(v int) { evicted = append(evicted, v) })
	c.Put(0, 0x1000, 64, 1)
	c.Put(0, 0x2000, 64, 2)
	c.Get(0, 0x1000, 64) // 1 becomes MRU
	c.Put(0, 0x3000, 64, 3)
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
}

func TestDelete(t *testing.T) {
	c := New[int](1, 0, nil)
	c.Put(0, 0x1000, 64, 1)
	if !c.Delete(0, 0x1000, 64) {
		t.Fatal("Delete missed existing entry")
	}
	if c.Delete(0, 0x1000, 64) {
		t.Fatal("Delete found removed entry")
	}
	if _, ok := c.Get(0, 0x1000, 64); ok {
		t.Fatal("entry survives Delete")
	}
	if !c.wellFormed() {
		t.Fatal("cache invariants broken")
	}
}

func TestClearInvokesEvict(t *testing.T) {
	n := 0
	c := New[int](2, 0, func(int) { n++ })
	c.Put(0, 0x1000, 64, 1)
	c.Put(0, 0x2000, 64, 2)
	c.Put(1, 0x1000, 64, 3)
	c.Clear()
	if n != 3 || c.Len() != 0 {
		t.Fatalf("Clear: evicted %d, Len %d", n, c.Len())
	}
}

// Property: the cache behaves exactly like a map from (rank,addr,size) to
// value under any sequence of Put/Get/Delete (with unbounded capacity), and
// internal invariants hold throughout.
func TestPropertyMatchesMapModel(t *testing.T) {
	type ref struct {
		rank int
		addr mem.Addr
		size int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ranks = 4
		c := New[int](ranks, 0, nil)
		model := make(map[ref]int)
		for op := 0; op < 500; op++ {
			r := ref{rng.Intn(ranks), mem.Addr(rng.Intn(32) * 64), 64 * (1 + rng.Intn(4))}
			switch rng.Intn(3) {
			case 0:
				v := rng.Intn(1000)
				c.Put(r.rank, r.addr, r.size, v)
				model[r] = v
			case 1:
				got, ok := c.Get(r.rank, r.addr, r.size)
				want, wok := model[r]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				ok := c.Delete(r.rank, r.addr, r.size)
				_, wok := model[r]
				if ok != wok {
					return false
				}
				delete(model, r)
			}
			if op%97 == 0 && !c.wellFormed() {
				return false
			}
		}
		if c.Len() != len(model) {
			return false
		}
		return c.wellFormed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with per-rank capacity k, the cache never holds more than k
// entries per rank and total evictions equal insertions minus live entries.
func TestPropertyCapacityRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		c := New[int](2, k, nil)
		inserts := 0
		for op := 0; op < 300; op++ {
			rank := rng.Intn(2)
			addr := mem.Addr(rng.Intn(64) * 64)
			if _, ok := c.Get(rank, addr, 64); !ok {
				c.Put(rank, addr, 64, op)
				inserts++
			}
			if c.shards[rank].n > k {
				return false
			}
		}
		if int(c.Evictions) != inserts-c.Len() {
			return false
		}
		return c.wellFormed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAVLStaysBalancedUnderSequentialInserts(t *testing.T) {
	c := New[int](1, 0, nil)
	for i := 0; i < 4096; i++ {
		c.Put(0, mem.Addr(i*64), 64, i)
	}
	s := &c.shards[0]
	if h := height(s.root); h > 14 { // 1.44*log2(4096) ~ 17; AVL of 4096 <= 14..16
		t.Fatalf("tree height %d too large for 4096 nodes", h)
	}
	if !c.wellFormed() {
		t.Fatal("invariants broken")
	}
}
