// Package regcache implements the registration caches of Section VII-B of
// the paper: a two-level structure with a rank-indexed array at the first
// level ("there is only a finite number of ranks allowed in a communicator")
// and an index keyed by (buffer address, size) at the second level.
//
// The same structure backs three caches in the framework:
//
//   - the host-side GVMI cache (rank = mapped DPU proxy; value = mkey info),
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
// with one sort and one merge-walk, and its misses join the slot in one
// merge with at most one growth.
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
		// Grow with append, not slices.Insert: under the race detector its
		// make of the gap escapes, an extra allocation per growth.
		s = append(s, entry[V]{})
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
// GetOrCreate per key in the order they were added: the same values, the
// same hits and misses counted at the same points, the same create calls
// in the same order and, once every key is resolved, the same slot. A key
// repeated within the batch is a miss the first time and a hit after. Use
// it as
//
//	b := c.Batch(rank, n)
//	for each key: b.Add(addr, size)
//	b.Classify()
//	for each key, in Add order: v, hit := b.Next(create)
//	b.Commit()
//
// Classify merges the batch's misses into the slot, growing it at most
// once, as zero values that Next fills in, so nothing else may look the
// slot up until the last Next. Commit drops the batch's scratch.
type Batch[V any] struct {
	c    *Cache[V]
	rank int
	keys []batchKey
	next int // keys[next] is the one Next resolves
}

// batchKey is one added key and, once classified, the slot position of its
// entry: ref for a hit, -1-ref for the miss that creates the entry.
type batchKey struct {
	k   key
	ref int32
}

// Batch starts a batch over slot rank, sized for n keys.
func (c *Cache[V]) Batch(rank, n int) Batch[V] {
	return Batch[V]{c: c, rank: rank, keys: make([]batchKey, 0, n)}
}

// Add appends (addr, size) to the batch's keys.
func (b *Batch[V]) Add(addr mem.Addr, size int) {
	b.keys = append(b.keys, batchKey{k: key{addr, size}})
}

// Classify finds every added key in the slot — one sort of an index of the
// keys, then one walk over it and the slot together — and merges the
// misses in.
func (b *Batch[V]) Classify() {
	keys := b.keys
	ord := make([]int32, len(keys))
	for i := range ord {
		ord[i] = int32(i)
	}
	// Equal keys stay in Add order: the first of each run creates the entry.
	slices.SortFunc(ord, func(x, y int32) int {
		switch kx, ky := keys[x].k, keys[y].k; {
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
		k := keys[ord[p]].k
		j, ok := search(s[lo:], k)
		lo += j
		pos := int32(lo + misses)
		if ok {
			keys[ord[p]].ref = pos
		} else {
			keys[ord[p]].ref = -1 - pos
			misses++
		}
		for p++; p < len(ord) && keys[ord[p]].k == k; p++ {
			keys[ord[p]].ref = pos
		}
	}
	if misses == 0 {
		return
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
		bk := &keys[ord[p]]
		if bk.ref >= 0 {
			continue
		}
		for ; a >= 0 && bk.k.less(s[a].k); a, w = a-1, w-1 {
			s[w] = s[a]
		}
		s[w] = entry[V]{k: bk.k}
		w--
	}
	b.c.slots[b.rank] = s
}

// Next resolves the next key in Add order as GetOrCreate would: a key in
// the slot, or one created earlier in the batch, is a hit; otherwise it is
// a miss and create() makes its value.
func (b *Batch[V]) Next(create func() V) (v V, hit bool) {
	ref := b.keys[b.next].ref
	b.next++
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

// Commit ends the batch, whose every key must have been resolved, and
// drops its scratch.
func (b *Batch[V]) Commit() {
	if b.next != len(b.keys) {
		panic("regcache: batch committed with keys unresolved")
	}
	*b = Batch[V]{}
}
