// Package mem models per-process address spaces for the simulated cluster.
//
// Every simulated process owns a Space from which it allocates Buffers.
// Buffers may be payload-backed (carrying real bytes, so RDMA operations
// physically copy data and correctness can be verified end to end) or
// size-only (for large-scale figure runs where only virtual-time costs
// matter).
package mem

import (
	"fmt"
	"sort"

	"repro/internal/pool"
)

// Addr is a virtual address within a Space.
type Addr uint64

// Space is one process's address space.
type Space struct {
	next Addr
	bufs []*Buffer // sorted by addr
	slab *pool.Slab[Buffer]
}

// NewSpace returns an empty address space with a Buffer slab of its own.
func NewSpace() *Space { return NewSpaceIn(new(pool.Slab[Buffer])) }

// NewSpaceIn returns an empty address space whose Buffer records come from
// slab, shared with the other spaces of one simulation (the cluster's):
// most spaces hold a few buffers, so a slab each would cost more than their
// records. Allocation starts at a nonzero base so that Addr(0) is never
// valid.
func NewSpaceIn(slab *pool.Slab[Buffer]) *Space {
	return &Space{next: 0x1000, slab: slab}
}

// Buffer is a contiguous allocation in a Space.
type Buffer struct {
	addr Addr
	size int
	data []byte // nil for size-only buffers
}

const allocAlign = 64

// Alloc reserves size bytes and, if backed is true, attaches real storage.
func (s *Space) Alloc(size int, backed bool) *Buffer {
	if size < 0 {
		panic("mem: negative allocation")
	}
	b := s.slab.New()
	*b = Buffer{addr: s.next, size: size}
	if backed {
		b.data = make([]byte, size)
	}
	step := Addr(size)
	step = (step + allocAlign - 1) &^ Addr(allocAlign-1)
	if step == 0 {
		step = allocAlign
	}
	s.next += step
	s.bufs = append(s.bufs, b)
	return b
}

// Addr returns the buffer's base address.
func (b *Buffer) Addr() Addr { return b.addr }

// Size returns the buffer's length in bytes.
func (b *Buffer) Size() int { return b.size }

// Backed reports whether the buffer carries real payload bytes.
func (b *Buffer) Backed() bool { return b.data != nil }

// Bytes returns the underlying storage, or nil for size-only buffers.
func (b *Buffer) Bytes() []byte { return b.data }

// Slice returns the backed bytes in [off, off+n). It panics if the range is
// out of bounds or the buffer is size-only.
func (b *Buffer) Slice(off, n int) []byte {
	if b.data == nil {
		panic("mem: Slice on size-only buffer")
	}
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("mem: slice [%d,%d) out of buffer size %d", off, off+n, b.size))
	}
	return b.data[off : off+n]
}

// Lookup finds the buffer containing [addr, addr+size) and the offset of
// addr within it. It returns nil if no single allocation covers the range.
func (s *Space) Lookup(addr Addr, size int) (*Buffer, int) {
	i := sort.Search(len(s.bufs), func(i int) bool { return s.bufs[i].addr > addr })
	if i == 0 {
		return nil, 0
	}
	b := s.bufs[i-1]
	off := int(addr - b.addr)
	if off+size > b.size {
		return nil, 0
	}
	return b, off
}

// WriteAt copies src into the space at addr, if the covering buffer is
// payload-backed; size-only targets record nothing. n is the declared
// length (used when src is nil for size-only transfers).
func (s *Space) WriteAt(addr Addr, src []byte, n int) {
	if b, off := s.Lookup(addr, n); b != nil && b.data != nil && src != nil {
		copy(b.data[off:off+n], src)
	}
}

// ReadAt returns the payload bytes at [addr, addr+n), or nil if the covering
// buffer is size-only or the range is unmapped.
func (s *Space) ReadAt(addr Addr, n int) []byte {
	b, off := s.Lookup(addr, n)
	if b == nil || b.data == nil {
		return nil
	}
	return b.data[off : off+n]
}
