// Package mem models the logical address space of a simulated graph
// application. Kernels allocate named arrays in this space and emit memory
// accesses against them; the cache simulator consumes those accesses. The
// layout mirrors what the paper's architecture assumes: each irregularly
// accessed array ("irregData") occupies one contiguous region — the paper
// pins it in a single 1 GB huge page so the irreg_base/irreg_bound
// registers can classify lines by physical address.
package mem

import "fmt"

// LineSize is the cache line size in bytes. The paper assumes 64 B lines
// everywhere (64 Rereference Matrix entries per line, address arithmetic by
// >> 6).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Access is a single memory reference. PC is a small site identifier, not a
// real program counter: each static load/store in a kernel gets its own PC,
// which is what PC-indexed policies (SHiP-PC, Hawkeye) key on.
type Access struct {
	Addr  uint64
	PC    uint16
	Write bool
}

// LineAddr returns the address of the cache line containing a.
//
//popt:hot
func (a Access) LineAddr() uint64 { return a.Addr &^ (LineSize - 1) }

// Array is a contiguous region of the simulated address space.
type Array struct {
	Name string
	Base uint64
	// ElemBits is the element size in bits. Graph data is 4 B or 8 B;
	// frontiers are bit-vectors (1 bit per vertex), hence bits not bytes.
	ElemBits uint64
	// Len is the number of elements.
	Len int
	// Irregular marks arrays accessed in a graph-dependent pattern
	// (srcData/dstData/frontier), the data P-OPT manages.
	Irregular bool
}

// Addr returns the byte address of element i. Sub-byte elements (bit
// vectors) return the address of the byte containing the bit, which is what
// the cache sees.
//
//popt:hot
func (a *Array) Addr(i int) uint64 {
	if i < 0 || i >= a.Len {
		a.badIndex(i)
	}
	return a.Base + uint64(i)*a.ElemBits/8
}

// badIndex panics with the out-of-range message. The panic (and its fmt
// boxing) lives here rather than in Addr so nothing escapes on Addr's hot
// path and the hot-path baseline stays escape-free; noinline stops the
// compiler from folding the boxing back into the caller.
//
//go:noinline
func (a *Array) badIndex(i int) {
	panic(fmt.Sprintf("mem: %s[%d] out of range [0,%d)", a.Name, i, a.Len))
}

// SizeBytes returns the footprint of the array, rounded up to whole bytes.
func (a *Array) SizeBytes() uint64 { return (uint64(a.Len)*a.ElemBits + 7) / 8 }

// NumLines returns the number of cache lines the array spans.
func (a *Array) NumLines() int { return int((a.SizeBytes() + LineSize - 1) / LineSize) }

// Bound returns one past the last byte address of the array.
func (a *Array) Bound() uint64 { return a.Base + a.SizeBytes() }

// Contains reports whether addr falls inside the array, i.e. the
// irreg_base/irreg_bound register comparison from the paper.
//
//popt:hot
func (a *Array) Contains(addr uint64) bool { return addr >= a.Base && addr < a.Bound() }

// ElemsPerLine returns how many elements share one cache line.
func (a *Array) ElemsPerLine() int { return int(LineSize * 8 / a.ElemBits) }

// Space allocates arrays at line-aligned, gap-separated addresses. The gap
// keeps distinct arrays from sharing lines, as the huge-page placement in
// the paper guarantees.
type Space struct {
	next   uint64
	arrays []*Array
}

// NewSpace returns an empty address space. Allocation starts away from
// address zero so a zero Addr is never a valid reference.
func NewSpace() *Space { return &Space{next: 1 << 30} }

// Alloc places a new array of n elements of elemBits bits each.
func (s *Space) Alloc(name string, n int, elemBits uint64, irregular bool) *Array {
	a := &Array{Name: name, Base: s.next, ElemBits: elemBits, Len: n, Irregular: irregular}
	s.arrays = append(s.arrays, a)
	// Advance past the array plus a guard page, keeping line alignment.
	s.next = (a.Bound() + 4096 + LineSize - 1) &^ (LineSize - 1)
	return a
}

// AllocBytes places an array of n byte-sized elements (elemBytes each).
func (s *Space) AllocBytes(name string, n int, elemBytes uint64, irregular bool) *Array {
	return s.Alloc(name, n, elemBytes*8, irregular)
}

// Find returns the array containing addr, or nil.
func (s *Space) Find(addr uint64) *Array {
	for _, a := range s.arrays {
		if a.Contains(addr) {
			return a
		}
	}
	return nil
}
