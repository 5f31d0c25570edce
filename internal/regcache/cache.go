// Package regcache implements the registration caches of Section VII-B of
// the paper: a two-level structure with a rank-indexed array at the first
// level ("there is only a finite number of ranks allowed in a communicator")
// and an index keyed by (buffer address, size) at the second level.
//
// The same structure backs three caches in the framework:
//
//   - the host-side GVMI cache (rank = mapped DPU proxy; value = the mkey
//     and GVMI-ID, which with the key make up the mkey info),
//   - the DPU-side cross-registration cache (rank = source host rank;
//     value = mkey2),
//   - the IB registration cache (value = lkey/rkey MR).
//
// Values are opaque to the cache. Every lookup is an exact (address, size)
// match and nothing is ever evicted, so the second level is one slice per
// rank kept sorted by key: a lookup is a binary search. A single Put shifts
// the entries above it up one and allocates only when the slice doubles,
// where a tree allocates a node per entry and a Go map over-allocates as it
// grows. A group install registers a whole call's buffers at once, in an
// order (alltoall receives descend) that would make every Put shift the
// slot, so it goes through a Batch instead: the call's keys are classified
// with one sort and one merge-walk over indices into the caller's own
// records, and its misses join the slot in one merge with at most one
// growth.
package regcache

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/metrics"
)

// key orders cache entries by (address, size), matching the paper's BST
// "indexed by memory address ... queried using the address and size".
type key struct {
	addr mem.Addr
	size int
}

func (a key) less(b key) bool {
	return a.addr < b.addr || a.addr == b.addr && a.size < b.size
}

type entry[V any] struct {
	k key
	v V
}

// search returns the position of k in the sorted slot s and whether it is
// there. slices.BinarySearchFunc would call its comparison through a func
// value at every probe; that made a hit in a 1 000-entry slot twice as slow
// as the AVL tree this index replaced, while this loop is faster than it.
func search[V any](s []entry[V], k key) (int, bool) {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s[h].k.less(k) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(s) && s[i].k == k
}

// Cache is a rank-indexed array of sorted (address, size) indexes.
type Cache[V any] struct {
	slots [][]entry[V]

	// Stats
	Hits   int64
	Misses int64

	// Metric handles; nil (inert) unless Instrument attached a registry.
	mHits, mMisses *metrics.Counter
}

// New creates a cache for numRanks ranks. The cache is unbounded: perRank
// must be 0 and onEvict nil.
func New[V any](numRanks, perRank int, onEvict func(V)) *Cache[V] {
	if perRank != 0 || onEvict != nil {
		panic("regcache: capacity and eviction are not supported")
	}
	return &Cache[V]{slots: make([][]entry[V], numRanks)}
}

// Instrument binds the cache's hit/miss counters to a metrics registry
// under (layer "regcache", entity). It also registers an "evictions"
// counter, always 0, that the pinned baselines list. Nil-safe: a nil
// registry leaves the cache uninstrumented.
func (c *Cache[V]) Instrument(m *metrics.Registry, entity string) {
	if !m.Enabled() {
		return
	}
	c.mHits = m.Counter("regcache", entity, "hits")
	c.mMisses = m.Counter("regcache", entity, "misses")
	m.Counter("regcache", entity, "evictions")
}

// Get looks up (rank, addr, size).
func (c *Cache[V]) Get(rank int, addr mem.Addr, size int) (V, bool) {
	s := c.slots[rank]
	if i, ok := search(s, key{addr, size}); ok {
		c.Hits++
		c.mHits.Inc()
		return s[i].v, true
	}
	c.Misses++
	c.mMisses.Inc()
	var zero V
	return zero, false
}

// Reserve makes room in rank's slot for n more entries, so that many Puts
// of new keys insert without growing it.
func (c *Cache[V]) Reserve(rank, n int) { c.slots[rank] = slices.Grow(c.slots[rank], n) }

// Put inserts or replaces the entry for (rank, addr, size).
func (c *Cache[V]) Put(rank int, addr mem.Addr, size int, v V) {
	k := key{addr, size}
	s := c.slots[rank]
	i, ok := search(s, k)
	if !ok {
		// Double a full slot, as Classify does: append grows one past 256
		// entries by a quarter, and slices.Insert's make of the gap
		// escapes under the race detector, an extra allocation per growth.
		if len(s) == cap(s) {
			grown := make([]entry[V], len(s), max(2*len(s), 1))
			copy(grown, s)
			s = grown
		}
		s = s[:len(s)+1]
		copy(s[i+1:], s[i:])
		c.slots[rank] = s
	}
	s[i] = entry[V]{k, v}
}

// GetOrCreate returns the cached value for (rank, addr, size), or installs
// create()'s result on a miss. hit reports whether the value was cached.
func (c *Cache[V]) GetOrCreate(rank int, addr mem.Addr, size int, create func() V) (v V, hit bool) {
	if v, ok := c.Get(rank, addr, size); ok {
		return v, true
	}
	v = create()
	c.Put(rank, addr, size, v)
	return v, false
}

// Batch looks up the keys of one slot in one pass, with the results of a
// GetOrCreate per key in the order the keys were given: the same values, the
// same hits and misses counted at the same points, the same create calls
// in the same order and, once every key is resolved, the same slot. A key
// repeated within the batch is a miss the first time and a hit after.
//
// The caller keeps the keys and the batch's scratch, so a batch copies
// nothing: it names its keys by index, ord lists them in ascending order,
// and ref holds one int32 per index up to the largest. Use it as
//
//	b := c.Batch(rank, ord, ref)
//	misses := b.Classify(key) // key(i) is key i's (address, size)
//	for each key index i, ascending: v, hit := b.Next(i, create)
//	b.Commit()
//
// Classify reorders ord and merges the batch's misses into the slot,
// growing it at most once, as zero values that Next fills in, so nothing
// else may look the slot up until the last Next.
type Batch[V any] struct {
	c    *Cache[V]
	rank int
	ord  []int32 // the batch's key indices; sorted by key once classified
	ref  []int32 // by key index: its entry's slot position, pos for a hit, -1-pos for the miss that creates it
	left int     // keys not yet resolved
}

// Batch starts a batch over slot rank for the keys ord names (see Batch).
func (c *Cache[V]) Batch(rank int, ord, ref []int32) Batch[V] {
	return Batch[V]{c: c, rank: rank, ord: ord, ref: ref, left: len(ord)}
}

// Classify finds every key of the batch in the slot — one sort of ord by
// key, then one walk over it and the slot together — merges the misses in
// and returns how many there are.
func (b *Batch[V]) Classify(keyOf func(i int32) (mem.Addr, int)) int {
	ord, ref := b.ord, b.ref
	at := func(i int32) key {
		addr, size := keyOf(i)
		return key{addr, size}
	}
	// Equal keys stay in index order: the first of each run creates the entry.
	slices.SortFunc(ord, func(x, y int32) int {
		switch kx, ky := at(x), at(y); {
		case kx.less(ky):
			return -1
		case ky.less(kx):
			return 1
		}
		return int(x - y)
	})
	// Each distinct key is a binary search of the slot above the previous
	// one; its position once the misses are in adds the misses below it.
	s := b.c.slots[b.rank]
	lo, misses := 0, 0
	for p := 0; p < len(ord); {
		k := at(ord[p])
		j, ok := search(s[lo:], k)
		lo += j
		pos := int32(lo + misses)
		if ok {
			ref[ord[p]] = pos
		} else {
			ref[ord[p]] = -1 - pos
			misses++
		}
		for p++; p < len(ord) && at(ord[p]) == k; p++ {
			ref[ord[p]] = pos
		}
	}
	if misses == 0 {
		return 0
	}
	a := len(s) - 1
	if len(s)+misses > cap(s) {
		// Not append(s, make(…)...): under the race detector its make
		// escapes, a second allocation.
		grown := make([]entry[V], len(s), max(len(s)+misses, 2*len(s)))
		copy(grown, s)
		s = grown
	}
	s = s[:len(s)+misses]
	w := len(s) - 1
	for p := len(ord) - 1; p >= 0; p-- {
		if ref[ord[p]] >= 0 {
			continue
		}
		k := at(ord[p])
		for ; a >= 0 && k.less(s[a].k); a, w = a-1, w-1 {
			s[w] = s[a]
		}
		s[w] = entry[V]{k: k}
		w--
	}
	b.c.slots[b.rank] = s
	return misses
}

// Next resolves key i, keys being resolved in ascending index order, as
// GetOrCreate would: a key in the slot, or one created earlier in the batch,
// is a hit; otherwise it is a miss and create() makes its value.
func (b *Batch[V]) Next(i int32, create func() V) (v V, hit bool) {
	ref := b.ref[i]
	b.left--
	c := b.c
	if ref >= 0 {
		c.Hits++
		c.mHits.Inc()
		return c.slots[b.rank][ref].v, true
	}
	c.Misses++
	c.mMisses.Inc()
	v = create()
	c.slots[b.rank][-1-ref].v = v
	return v, false
}

// Commit ends the batch, whose every key must have been resolved.
func (b *Batch[V]) Commit() {
	if b.left != 0 {
		panic("regcache: batch committed with keys unresolved")
	}
	*b = Batch[V]{}
}
