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
// (rank, peer) pairs: the event arena, the free lists here, and the key
// tables of verbs and gvmi.
package pool

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
type List[T any] struct {
	slab Slab[T]
	free []*T
}

// Get returns the record put last, or a zeroed one from the slab.
func (l *List[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return l.slab.New()
	}
	x := l.free[n-1]
	l.free = l.free[:n-1]
	return x
}

// Put returns x to the list. The caller must be its last holder.
func (l *List[T]) Put(x *T) { l.free = Append(l.free, x) }

// Free returns the records on the list as a set, and false if one of them
// is on it twice: a record put back twice. It is the one double-free check
// of the recycling tests.
func (l *List[T]) Free() (set map[*T]bool, distinct bool) {
	set = make(map[*T]bool, len(l.free))
	for _, x := range l.free {
		set[x] = true
	}
	return set, len(set) == len(l.free)
}

// Append appends x to s, first doubling the capacity of a full s. The
// built-in append grows a slice past 256 elements by about a quarter, so a
// table that reaches n entries through it has been copied some twenty times
// and has allocated about 5n entries on the way; doubled, it has allocated
// about 2n. Indices into s, and the order of its elements, are append's.
func Append[S ~[]E, E any](s S, x E) S {
	if len(s) == cap(s) {
		// slices.Grow's idiom, written out so that Append inlined into a
		// hot path (the kernel's slot, List.Put) calls nothing.
		s = append(s[:cap(s)], make(S, len(s)+1)...)[:len(s)]
	}
	return append(s, x)
}
