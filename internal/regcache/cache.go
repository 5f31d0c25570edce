// Package regcache implements the registration caches of Section VII-B of
// the paper: a two-level structure with a rank-indexed array at the first
// level ("there is only a finite number of ranks allowed in a communicator")
// and a balanced binary search tree keyed by (buffer address, size) at the
// second level.
//
// The same structure backs three caches in the framework:
//
//   - the host-side GVMI cache (rank = mapped DPU proxy; value = mkey info),
//   - the DPU-side cross-registration cache (rank = source host rank;
//     value = mkey2),
//   - the IB registration cache (value = lkey/rkey MR).
//
// Values are opaque to the cache. An optional per-rank capacity enables LRU
// eviction with a callback (used to deregister evicted regions).
package regcache

import (
	"repro/internal/mem"
	"repro/internal/metrics"
)

// Cache is a rank-indexed array of AVL trees with optional per-rank LRU
// eviction.
type Cache[V any] struct {
	shards  []shard[V]
	perRank int // 0 = unbounded
	onEvict func(V)

	// Stats
	Hits      int64
	Misses    int64
	Evictions int64

	// Metric handles; nil (inert) unless Instrument attached a registry.
	mHits, mMisses, mEvicts *metrics.Counter
}

// Instrument binds the cache's hit/miss/evict counters to a metrics
// registry under (layer "regcache", entity). Nil-safe: a nil registry
// leaves the cache uninstrumented.
func (c *Cache[V]) Instrument(m *metrics.Registry, entity string) {
	if !m.Enabled() {
		return
	}
	c.mHits = m.Counter("regcache", entity, "hits")
	c.mMisses = m.Counter("regcache", entity, "misses")
	c.mEvicts = m.Counter("regcache", entity, "evictions")
}

type shard[V any] struct {
	root       *node[V]
	n          int
	head, tail *node[V] // LRU chain: head = most recently used
}

// New creates a cache for numRanks ranks. perRank bounds each rank's entry
// count (0 = unbounded); onEvict, if non-nil, is called with each evicted
// value.
func New[V any](numRanks, perRank int, onEvict func(V)) *Cache[V] {
	return &Cache[V]{shards: make([]shard[V], numRanks), perRank: perRank, onEvict: onEvict}
}

// Len returns the total number of cached entries.
func (c *Cache[V]) Len() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].n
	}
	return total
}

func (s *shard[V]) unlink(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if s.head == n {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if s.tail == n {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard[V]) pushFront(n *node[V]) {
	n.prev, n.next = nil, s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

// Get looks up (rank, addr, size) and marks the entry most recently used.
func (c *Cache[V]) Get(rank int, addr mem.Addr, size int) (V, bool) {
	s := &c.shards[rank]
	n := find(s.root, key{addr, size})
	if n == nil {
		c.Misses++
		c.mMisses.Inc()
		var zero V
		return zero, false
	}
	c.Hits++
	c.mHits.Inc()
	s.unlink(n)
	s.pushFront(n)
	return n.v, true
}

// Put inserts or replaces the entry for (rank, addr, size).
func (c *Cache[V]) Put(rank int, addr mem.Addr, size int, v V) {
	s := &c.shards[rank]
	k := key{addr, size}
	if n := find(s.root, k); n != nil {
		n.v = v
		s.unlink(n)
		s.pushFront(n)
		return
	}
	nn := &node[V]{k: k, v: v}
	s.root = insert(s.root, nn)
	s.pushFront(nn)
	s.n++
	if c.perRank > 0 && s.n > c.perRank {
		c.evictLRU(s)
	}
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

func (c *Cache[V]) evictLRU(s *shard[V]) {
	t := s.tail
	if t == nil {
		return
	}
	s.unlink(t)
	s.root = remove(s.root, t.k)
	s.n--
	c.Evictions++
	c.mEvicts.Inc()
	if c.onEvict != nil {
		c.onEvict(t.v)
	}
}

// Delete removes the entry for (rank, addr, size) if present, without
// invoking the eviction callback.
func (c *Cache[V]) Delete(rank int, addr mem.Addr, size int) bool {
	s := &c.shards[rank]
	n := find(s.root, key{addr, size})
	if n == nil {
		return false
	}
	s.unlink(n)
	s.root = remove(s.root, n.k)
	s.n--
	return true
}

// Clear drops every entry, invoking the eviction callback for each.
func (c *Cache[V]) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		for s.tail != nil {
			c.evictLRU(s)
		}
		// evictLRU counts these as evictions; that is intended (resources
		// are released through the same path).
	}
}

// wellFormed verifies internal invariants (tests only).
func (c *Cache[V]) wellFormed() bool {
	for i := range c.shards {
		s := &c.shards[i]
		if !checkAVL(s.root, nil, nil) {
			return false
		}
		if treeSize(s.root) != s.n {
			return false
		}
		// Chain length matches and is consistent.
		cnt := 0
		for n := s.head; n != nil; n = n.next {
			if n.next != nil && n.next.prev != n {
				return false
			}
			cnt++
		}
		if cnt != s.n {
			return false
		}
	}
	return true
}
