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
// rank kept sorted by key: a lookup is a binary search, an insert shifts
// the entries above it up one. It allocates only when a slice doubles,
// where a tree allocates a node per entry and a Go map over-allocates as it
// grows.
package regcache

import (
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
