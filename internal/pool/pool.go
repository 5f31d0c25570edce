// Package pool hands out the records of the simulator's per-message hot
// paths: flights, packets, control payloads, transfer and staging records,
// registrations and buffers. Tens of thousands of them are live at once on a
// 256-rank alltoall, so one heap object per record makes the first call of a
// collective pay one allocation per message; a Slab pays one per slabLen.
//
// Handlers and processes run one at a time (the kernel's coroutine
// discipline), so nothing here locks.
//
// Append is the growth rule of the tables that grow with the number of
// (rank, peer) pairs: the event arena, and, with AppendReserved, the key
// tables of verbs and gvmi.
package pool

import "unsafe"

// slabLen is the number of records one slab holds.
const slabLen = 128

// Slab hands out records carved from []T chunks of slabLen; nothing is
// given back to it. Alone it serves records that are never recycled, and it
// backs every List. Its zero value is ready to use.
type Slab[T any] struct {
	rest []T // the current chunk's records not yet handed out
}

// New returns a zeroed record.
func (s *Slab[T]) New() *T {
	if len(s.rest) == 0 {
		s.rest = make([]T, slabLen)
	}
	x := &s.rest[0]
	s.rest = s.rest[1:]
	return x
}

// List is a LIFO free list of records that falls back to its Slab when it
// is empty; its zero value is ready to use. Put does not zero a record: a
// caller that needs it scrubbed scrubs it before Put.
//
// A record is the first field of its slab node, whose other field links the
// node into the list while the record is free. So neither Put nor Get
// touches a slice: the list costs one pointer per record carved, where a
// slice of free records grew by doubling to the list's peak.
type List[T any] struct {
	slab Slab[node[T]]
	head *node[T] // the record put last; nil when the list is empty
}

// node is a record and its link; v is first, so a *T handed out is its
// node's address.
type node[T any] struct {
	v    T
	next *node[T]
}

// Get returns the record put last, or a zeroed one from the slab.
func (l *List[T]) Get() *T {
	n := l.head
	if n == nil {
		return &l.slab.New().v
	}
	l.head = n.next
	return &n.v
}

// Put returns x to the list. The caller must be its last holder, and x must
// have come from l's Get.
func (l *List[T]) Put(x *T) {
	n := (*node[T])(unsafe.Pointer(x))
	n.next, l.head = l.head, n
}

// Free returns the records on the list as a set, and false if one of them
// is on it twice: a record put back twice. It is the one double-free check
// of the recycling tests. A second Put of a record links it into the chain
// again, closing a cycle, so the walk stops at the first record it has
// already seen.
func (l *List[T]) Free() (set map[*T]bool, distinct bool) {
	set = make(map[*T]bool)
	for n := l.head; n != nil; n = n.next {
		if set[&n.v] {
			return set, false
		}
		set[&n.v] = true
	}
	return set, true
}

// Append appends x to s, first doubling the capacity of a full s. The
// built-in append grows a slice past 256 elements by about a quarter, so a
// table that reaches n entries through it has been copied some twenty times
// and has allocated about 5n entries on the way; doubled, it has allocated
// about 2n. Indices into s, and the order of its elements, are append's.
func Append[S ~[]E, E any](s S, x E) S {
	if len(s) == cap(s) {
		// slices.Grow's idiom, written out so that Append inlined into a
		// hot path (the kernel's slot) calls nothing.
		s = append(s[:cap(s)], make(S, len(s)+1)...)[:len(s)]
	}
	return append(s, x)
}

// AppendReserved is Append for a table whose owner counts in *reserved the
// entries it has been told are coming: a full s grows once to hold them all
// (or doubles, if that is more), and each entry appended takes one off the
// count. A table whose entries are all announced before the first of them
// arrives — an install's registrations, counted by its caches' misses — is
// allocated once, at its final size.
func AppendReserved[S ~[]E, E any](s S, x E, reserved *int) S {
	if len(s) == cap(s) {
		s = append(s[:cap(s)], make(S, max(len(s)+1, *reserved))...)[:len(s)]
	}
	*reserved = max(*reserved-1, 0)
	return append(s, x)
}
