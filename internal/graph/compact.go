package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Blocked, delta-compressed CSR. Plain Adj spends 8 bytes per vertex on
// offsets and 4 bytes per edge on neighbor IDs; at paper scale the neighbor
// array alone is hundreds of megabytes of DRAM-bound traffic. The compact
// layout stores each (sorted, unique) neighbor list as LEB128 varints — the
// first neighbor absolute, every later one as (gap-1) from its predecessor
// — and replaces the 8-byte offsets array with one degree byte per vertex
// plus two small per-block arrays (the segmented-layout idea of Cagra,
// arXiv 1608.01362, applied to storage rather than traversal):
//
//	deg       one byte per vertex; 0xFF escapes to a sorted exception
//	          table holding the rare >= 255 degrees (hubs)
//	edgeBase  per block of 32 vertices, the global edge index of the
//	          block's first neighbor — kernels keep emitting simulated
//	          loads at the same global edge indices as the plain layout
//	byteBase  per block, the byte offset of the block's data
//
// Random access recovers a vertex's edge start by summing at most 31
// degree bytes (word-wise, with a pairwise-widening byte sum) and skips to
// its bytes by counting varint terminators (one per neighbor) with a
// popcount. Sequential access — every kernel inner loop — goes through
// NeighborIter and never pays the block prefix at all.
//
// The layout is behind the Adj API: Degree/Neighbors/NextAfter/IterFrom
// dispatch on which representation is present, so kernels, schedules, and
// the Rereference Matrix builders run unmodified and tiny/default goldens
// stay byte-identical (those scales stay plain unless forced).

// Layout selects the in-memory adjacency representation of a suite graph.
type Layout int

const (
	// LayoutAuto picks per scale: compact at ScaleLarge (where resident
	// graph bytes dominate), plain otherwise (tiny/default goldens were
	// recorded against plain decode-free iteration).
	LayoutAuto Layout = iota
	// LayoutPlain is the historical two-array CSR.
	LayoutPlain
	// LayoutCompact is the blocked delta-compressed CSR above.
	LayoutCompact
)

func (l Layout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutPlain:
		return "plain"
	case LayoutCompact:
		return "compact"
	}
	return fmt.Sprintf("layout(%d)", int(l))
}

// ParseLayout parses the -layout flag values.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "auto", "":
		return LayoutAuto, nil
	case "plain":
		return LayoutPlain, nil
	case "compact":
		return LayoutCompact, nil
	}
	return LayoutAuto, fmt.Errorf("graph: unknown layout %q (want auto, plain, or compact)", s)
}

// Resolve maps LayoutAuto to the concrete layout for a scale.
func (l Layout) Resolve(s Scale) Layout {
	if l != LayoutAuto {
		return l
	}
	if s == ScaleLarge {
		return LayoutCompact
	}
	return LayoutPlain
}

const (
	// compactBlockLog: vertices per block. 32 bounds the random-access
	// prefix sum to four words of degree bytes while keeping the two
	// 8-byte per-block arrays at half a byte per vertex.
	compactBlockLog = 5
	compactBlock    = 1 << compactBlockLog
	// degEscape marks a vertex whose degree does not fit the byte and
	// lives in the exception table instead.
	degEscape = 0xFF
)

// adjCompact is the storage behind a compact Adj. Immutable after
// construction, like the Adj that owns it.
//
//popt:frozen
type adjCompact struct {
	n        int
	m        uint64
	deg      []uint8
	edgeBase []uint64 // len nb+1; edgeBase[nb] == m
	byteBase []uint64 // len nb+1; byteBase[nb] == len(data)
	excV     []V      // sorted vertices with degree >= degEscape
	excDeg   []uint64 // excDeg[i] is excV[i]'s degree
	data     []byte
}

// memBytes is the resident footprint of the compact storage.
func (c *adjCompact) memBytes() uint64 {
	return uint64(len(c.deg)) + 8*uint64(len(c.edgeBase)+len(c.byteBase)) +
		4*uint64(len(c.excV)) + 8*uint64(len(c.excDeg)) + uint64(len(c.data))
}

// degree returns the neighbor count of v.
//
//popt:hot
func (c *adjCompact) degree(v V) int {
	d := c.deg[v]
	if d != degEscape {
		return int(d)
	}
	return int(c.excDeg[c.excIndex(v)])
}

// excIndex locates v in the (sorted) exception table. Callers only reach
// it through a degEscape byte, so the entry exists.
func (c *adjCompact) excIndex(v V) int {
	lo, hi := 0, len(c.excV)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.excV[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasFF reports whether any byte of w is 0xFF (an escaped degree).
func hasFF(w uint64) bool {
	x := ^w
	return (x-0x0101010101010101)&^x&0x8080808080808080 != 0
}

// byteSum adds the eight bytes of w by pairwise widening; the multiply
// trick would overflow (a word of degree bytes can sum past 255).
func byteSum(w uint64) uint64 {
	w = (w & 0x00ff00ff00ff00ff) + ((w >> 8) & 0x00ff00ff00ff00ff)
	w = (w & 0x0000ffff0000ffff) + ((w >> 16) & 0x0000ffff0000ffff)
	return (w + (w >> 32)) & 0xffffffff
}

// start returns the global edge index of v's first neighbor: the block's
// edgeBase plus the sum of the preceding degree bytes in the block.
// v == n is allowed and returns m, mirroring OA[n] on the plain layout.
//
//popt:hot
func (c *adjCompact) start(v V) uint64 {
	b := int(v) >> compactBlockLog
	if b >= len(c.edgeBase)-1 {
		return c.m
	}
	sum := c.edgeBase[b]
	j := b << compactBlockLog
	for ; j+8 <= int(v); j += 8 {
		w := binary.LittleEndian.Uint64(c.deg[j:])
		if hasFF(w) {
			return c.startSlow(v)
		}
		sum += byteSum(w)
	}
	for ; j < int(v); j++ {
		d := c.deg[j]
		if d == degEscape {
			return c.startSlow(v)
		}
		sum += uint64(d)
	}
	return sum
}

// startSlow is the escape-handling prefix sum, taken only for blocks that
// contain a hub vertex.
//
//go:noinline
func (c *adjCompact) startSlow(v V) uint64 {
	b := int(v) >> compactBlockLog
	sum := c.edgeBase[b]
	for j := b << compactBlockLog; j < int(v); j++ {
		d := c.deg[j]
		if d == degEscape {
			sum += c.excDeg[c.excIndex(V(j))]
		} else {
			sum += uint64(d)
		}
	}
	return sum
}

// vpos returns the byte offset of v's encoded neighbor list. Every
// neighbor is exactly one varint, so the varints to skip from the block's
// data start equal the edges between the block start and v.
//
//popt:hot
func (c *adjCompact) vpos(v V) uint64 {
	b := int(v) >> compactBlockLog
	return skipVarints(c.data, c.byteBase[b], c.start(v)-c.edgeBase[b])
}

// skipVarints advances pos past k varints by counting terminator bytes
// (high bit clear), a word at a time while k is large.
//
//popt:hot
func skipVarints(data []byte, pos, k uint64) uint64 {
	for k >= 8 && pos+8 <= uint64(len(data)) {
		w := binary.LittleEndian.Uint64(data[pos:])
		t := uint64(bits.OnesCount64(^w & 0x8080808080808080))
		if t >= k {
			// The k-th terminator is inside this word, possibly followed
			// by the next varint's continuation bytes; finish byte-wise.
			break
		}
		k -= t
		pos += 8
	}
	for k > 0 {
		if data[pos] < 0x80 {
			k--
		}
		pos++
	}
	return pos
}

// uvarintAt decodes one LEB128 varint at pos. The single-byte case — the
// overwhelming majority for delta-compressed sorted lists — is the
// branch-light fast path, mirroring the trace decoders.
//
//popt:hot
func uvarintAt(data []byte, pos uint64) (uint64, uint64) {
	b := data[pos]
	if b < 0x80 {
		return uint64(b), pos + 1
	}
	return uvarintSlowAt(data, pos)
}

// uvarintSlowAt is the multi-byte continuation loop, kept out of the fast
// path's inlining budget.
//
//go:noinline
func uvarintSlowAt(data []byte, pos uint64) (uint64, uint64) {
	var x uint64
	var shift uint
	for {
		b := data[pos]
		pos++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, pos
		}
		shift += 7
	}
}

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// putUvarint writes x at data[pos:] and returns the next position.
func putUvarint(data []byte, pos uint64, x uint64) uint64 {
	for x >= 0x80 {
		data[pos] = byte(x) | 0x80
		x >>= 7
		pos++
	}
	data[pos] = byte(x)
	return pos + 1
}

// decodeInto decodes v's neighbors into dst, which must have room for
// degree(v) elements. Returns the count.
//
//popt:hot
func (c *adjCompact) decodeInto(v V, dst []V) int {
	d := c.degree(v)
	if d == 0 {
		return 0
	}
	pos := c.vpos(v)
	x, pos := uvarintAt(c.data, pos)
	prev := V(x)
	dst[0] = prev
	for i := 1; i < d; i++ {
		gap, p := uvarintAt(c.data, pos)
		prev += V(gap) + 1
		dst[i] = prev
		pos = p
	}
	return d
}

// neighsAlloc decodes v's neighbors into a fresh slice (the compact
// backing of Adj.Neighs, for cold callers that want an owned list).
func (c *adjCompact) neighsAlloc(v V) []V {
	d := c.degree(v)
	if d == 0 {
		return nil
	}
	out := make([]V, d)
	c.decodeInto(v, out)
	return out
}

// nextAfter is NextAfter on the compact layout: a forward decode with
// early exit. Sorted gaps mean the scan stops at the first neighbor past
// cur; the plain layout's binary search is not available without
// materializing the list, and eviction candidates in the simulated
// policies are served from Rereference structures, not this path.
//
//popt:hot
func (c *adjCompact) nextAfter(v V, cur V) (V, bool) {
	d := c.degree(v)
	if d == 0 {
		return 0, false
	}
	pos := c.vpos(v)
	x, pos := uvarintAt(c.data, pos)
	prev := V(x)
	if prev > cur {
		return prev, true
	}
	for i := 1; i < d; i++ {
		gap, p := uvarintAt(c.data, pos)
		prev += V(gap) + 1
		if prev > cur {
			return prev, true
		}
		pos = p
	}
	return 0, false
}

// compactFromPlain encodes a plain Adj into the blocked compressed form.
// It runs as a final phase of the parallel build pipeline: per-block
// encoded sizes in parallel, a serial prefix over blocks, then parallel
// encoding into each block's disjoint byte range (same
// disjoint-range-per-worker discipline as compactNA).
func compactFromPlain(a *Adj) *adjCompact {
	n := len(a.OA) - 1
	m := uint64(len(a.NA))
	nb := (n + compactBlock - 1) >> compactBlockLog
	c := &adjCompact{
		n:        n,
		m:        m,
		deg:      make([]uint8, n),
		edgeBase: make([]uint64, nb+1),
		byteBase: make([]uint64, nb+1),
	}
	w := buildWorkers(int(m))

	// Degree bytes and per-worker exception lists. Worker ranges are
	// contiguous and ascending, so concatenating in worker order keeps the
	// exception table sorted.
	excParts := make([][]V, w)
	parallelRanges(n, w, func(worker, lo, hi int) {
		var exc []V
		for v := lo; v < hi; v++ {
			d := a.OA[v+1] - a.OA[v]
			if d >= degEscape {
				c.deg[v] = degEscape
				exc = append(exc, V(v))
			} else {
				c.deg[v] = uint8(d)
			}
		}
		excParts[worker] = exc
	})
	for _, part := range excParts {
		for _, v := range part {
			c.excV = append(c.excV, v)
			c.excDeg = append(c.excDeg, a.OA[v+1]-a.OA[v])
		}
	}

	// Per-block encoded sizes, then the serial block prefix.
	sizes := make([]uint64, nb)
	parallelRanges(nb, w, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			vlo := b << compactBlockLog
			vhi := vlo + compactBlock
			if vhi > n {
				vhi = n
			}
			var sz uint64
			for v := vlo; v < vhi; v++ {
				ns := a.NA[a.OA[v]:a.OA[v+1]]
				if len(ns) == 0 {
					continue
				}
				sz += uint64(uvarintLen(uint64(ns[0])))
				for i := 1; i < len(ns); i++ {
					sz += uint64(uvarintLen(uint64(ns[i] - ns[i-1] - 1)))
				}
			}
			sizes[b] = sz
		}
	})
	var total uint64
	for b := 0; b < nb; b++ {
		c.byteBase[b] = total
		total += sizes[b]
		c.edgeBase[b] = a.OA[b<<compactBlockLog]
	}
	c.byteBase[nb] = total
	c.edgeBase[nb] = m

	// Parallel encode into disjoint per-block byte ranges.
	c.data = make([]byte, total)
	parallelRanges(nb, w, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			pos := c.byteBase[b]
			vlo := b << compactBlockLog
			vhi := vlo + compactBlock
			if vhi > n {
				vhi = n
			}
			for v := vlo; v < vhi; v++ {
				ns := a.NA[a.OA[v]:a.OA[v+1]]
				if len(ns) == 0 {
					continue
				}
				pos = putUvarint(c.data, pos, uint64(ns[0]))
				for i := 1; i < len(ns); i++ {
					pos = putUvarint(c.data, pos, uint64(ns[i]-ns[i-1]-1))
				}
			}
		}
	})
	return c
}

// materializePlain decodes a compact Adj back into the two-array CSR (used
// by WithLayout(LayoutPlain)).
func materializePlain(c *adjCompact) Adj {
	oa := make([]uint64, c.n+1)
	na := make([]V, c.m)
	w := buildWorkers(int(c.m))
	nb := len(c.edgeBase) - 1
	parallelRanges(nb, w, func(_, blo, bhi int) {
		for b := blo; b < bhi; b++ {
			vlo := b << compactBlockLog
			vhi := vlo + compactBlock
			if vhi > c.n {
				vhi = c.n
			}
			edge := c.edgeBase[b]
			pos := c.byteBase[b]
			for v := vlo; v < vhi; v++ {
				oa[v] = edge
				d := c.degree(V(v))
				if d == 0 {
					continue
				}
				x, p := uvarintAt(c.data, pos)
				prev := V(x)
				na[edge] = prev
				for i := 1; i < d; i++ {
					gap, p2 := uvarintAt(c.data, p)
					prev += V(gap) + 1
					na[edge+uint64(i)] = prev
					p = p2
				}
				pos = p
				edge += uint64(d)
			}
		}
	})
	oa[c.n] = c.m
	return Adj{OA: oa, NA: na}
}

// WithLayout returns g in the requested concrete layout, sharing nothing
// mutable with g (the returned graph is a fresh value over immutable
// storage). LayoutAuto and an already-matching layout return g itself.
func (g *Graph) WithLayout(l Layout) *Graph {
	switch l {
	case LayoutCompact:
		if g.Out.c != nil && g.In.c != nil {
			return g
		}
		return &Graph{
			Out:  Adj{c: compactFromPlain(&g.Out)},
			In:   Adj{c: compactFromPlain(&g.In)},
			Name: g.Name,
		}
	case LayoutPlain:
		if g.Out.c == nil && g.In.c == nil {
			return g
		}
		out, in := g.Out, g.In
		if out.c != nil {
			out = materializePlain(out.c)
		}
		if in.c != nil {
			in = materializePlain(in.c)
		}
		return &Graph{Out: out, In: in, Name: g.Name}
	}
	return g
}

// appendCompactAdj serializes c for the POPTG2 container:
//
//	uvarint n, uvarint m
//	uvarint nexc, nexc x (uvarint vertex, uvarint degree)
//	n raw degree bytes
//	uvarint len(data), data
//
// Block arrays are reconstructed (and the payload fully validated) by
// decodeCompactAdj.
func appendCompactAdj(dst []byte, c *adjCompact) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = binary.AppendUvarint(dst, c.m)
	dst = binary.AppendUvarint(dst, uint64(len(c.excV)))
	for i, v := range c.excV {
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, c.excDeg[i])
	}
	dst = append(dst, c.deg...)
	dst = binary.AppendUvarint(dst, uint64(len(c.data)))
	dst = append(dst, c.data...)
	return dst
}

// decodeCompactAdj parses and fully validates a payload produced by
// appendCompactAdj, reconstructing the block arrays. Every failure mode —
// truncated blocks, corrupt varints, out-of-range or wrapped (non-monotone)
// neighbors, degree/edge-count disagreements — returns an error; the
// decoder never panics and never allocates proportionally to claimed (as
// opposed to present) sizes. FuzzAdjBlocks drives it from corrupted real
// encodings.
func decodeCompactAdj(src []byte) (c *adjCompact, rest []byte, err error) {
	off := 0
	u := func(what string) (uint64, bool) {
		x, k := binary.Uvarint(src[off:])
		if k <= 0 {
			err = fmt.Errorf("graph: compact adj: bad %s varint at %d", what, off)
			return 0, false
		}
		off += k
		return x, true
	}
	n64, ok := u("vertex count")
	if !ok {
		return nil, nil, err
	}
	if n64 > uint64(len(src)) {
		return nil, nil, fmt.Errorf("graph: compact adj: %d vertices exceeds %d payload bytes", n64, len(src))
	}
	n := int(n64)
	m, ok := u("edge count")
	if !ok {
		return nil, nil, err
	}
	nexc, ok := u("exception count")
	if !ok {
		return nil, nil, err
	}
	if nexc > n64 {
		return nil, nil, fmt.Errorf("graph: compact adj: %d exceptions for %d vertices", nexc, n)
	}
	excV := make([]V, 0, nexc)
	excDeg := make([]uint64, 0, nexc)
	for i := uint64(0); i < nexc; i++ {
		v, ok := u("exception vertex")
		if !ok {
			return nil, nil, err
		}
		d, ok := u("exception degree")
		if !ok {
			return nil, nil, err
		}
		if v >= n64 {
			return nil, nil, fmt.Errorf("graph: compact adj: exception vertex %d out of range", v)
		}
		if len(excV) > 0 && V(v) <= excV[len(excV)-1] {
			return nil, nil, fmt.Errorf("graph: compact adj: exception table not sorted at vertex %d", v)
		}
		if d < degEscape {
			return nil, nil, fmt.Errorf("graph: compact adj: exception degree %d below escape threshold", d)
		}
		if d > m {
			return nil, nil, fmt.Errorf("graph: compact adj: exception degree %d exceeds edge count %d", d, m)
		}
		excV = append(excV, V(v))
		excDeg = append(excDeg, d)
	}
	if off+n > len(src) {
		return nil, nil, fmt.Errorf("graph: compact adj: truncated degree array")
	}
	deg := src[off : off+n : off+n]
	off += n
	dataLen, ok := u("data length")
	if !ok {
		return nil, nil, err
	}
	if dataLen > uint64(len(src)-off) {
		return nil, nil, fmt.Errorf("graph: compact adj: data length %d exceeds remaining %d bytes", dataLen, len(src)-off)
	}
	data := src[off : off+int(dataLen) : off+int(dataLen)]
	off += int(dataLen)

	c = &adjCompact{n: n, m: m, deg: deg, excV: excV, excDeg: excDeg, data: data}
	nb := (n + compactBlock - 1) >> compactBlockLog
	c.edgeBase = make([]uint64, nb+1)
	c.byteBase = make([]uint64, nb+1)

	// One streaming walk validates everything at once — every degree byte
	// against the exception table, every varint against truncation and
	// monotonicity (neighbors accumulate in uint64, so a wrapped gap shows
	// up as out-of-range) — while filling the block arrays.
	var edge, pos uint64
	exc := 0
	for v := 0; v < n; v++ {
		if v&(compactBlock-1) == 0 {
			b := v >> compactBlockLog
			c.edgeBase[b] = edge
			c.byteBase[b] = pos
		}
		var d uint64
		if deg[v] == degEscape {
			if exc >= len(excV) || excV[exc] != V(v) {
				return nil, nil, fmt.Errorf("graph: compact adj: vertex %d escaped with no exception entry", v)
			}
			d = excDeg[exc]
			exc++
		} else {
			d = uint64(deg[v])
		}
		if d > m-edge {
			return nil, nil, fmt.Errorf("graph: compact adj: degrees exceed edge count %d at vertex %d", m, v)
		}
		edge += d
		var prev uint64
		for i := uint64(0); i < d; i++ {
			x, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return nil, nil, fmt.Errorf("graph: compact adj: truncated or corrupt neighbor varint for vertex %d", v)
			}
			pos += uint64(k)
			if i == 0 {
				prev = x
			} else {
				prev += x + 1
			}
			if prev >= n64 {
				return nil, nil, fmt.Errorf("graph: compact adj: vertex %d neighbor %d out of range [0,%d)", v, prev, n)
			}
		}
	}
	if exc != len(excV) {
		return nil, nil, fmt.Errorf("graph: compact adj: %d unused exception entries", len(excV)-exc)
	}
	if edge != m {
		return nil, nil, fmt.Errorf("graph: compact adj: degrees sum to %d, header says %d", edge, m)
	}
	if pos != uint64(len(data)) {
		return nil, nil, fmt.Errorf("graph: compact adj: %d trailing data bytes", uint64(len(data))-pos)
	}
	c.edgeBase[nb] = m
	c.byteBase[nb] = pos
	return c, src[off:], nil
}
