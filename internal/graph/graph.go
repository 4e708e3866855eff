// Package graph provides the compressed sparse graph representations,
// builders, generators, reorderings, and tilings used throughout the P-OPT
// reproduction.
//
// A Graph stores both traversal directions of its adjacency matrix: the
// Compressed Sparse Row (CSR) encodes outgoing neighbors of each source
// vertex and the Compressed Sparse Column (CSC) encodes incoming neighbors
// of each destination vertex. Keeping both is the norm in graph frameworks
// (GAP, Ligra) and is the property that T-OPT/P-OPT exploit: the transpose
// of the traversal direction encodes every vertex's next reference.
package graph

import (
	"fmt"
)

// V is the vertex identifier type. Real-world frameworks use 32-bit IDs; so
// does the paper (the full vertex-ID space that P-OPT quantizes is 32 bits).
type V = uint32

// Adj is one traversal direction of the adjacency matrix in compressed
// sparse form, in one of two layouts. The plain layout is the classic
// two-array CSR: OA (Offsets Array) has length N+1 and the neighbors of
// vertex v occupy NA[OA[v]:OA[v+1]], sorted ascending. The compact layout
// (see compact.go) stores the same lists blocked and delta-compressed
// behind the same API; OA and NA are nil and c carries the storage.
// Sorted neighbor lists are what make transpose-based next-reference
// lookups cheap in either layout.
//
// Every accessor dispatches on the layout, and the global edge indexing —
// the value Start/IterFrom report, which kernels use as the simulated
// neighbor-array index — is identical across layouts, so the simulated
// address stream does not depend on the host representation.
//
//popt:frozen
type Adj struct {
	OA []uint64
	NA []V
	c  *adjCompact
}

// IsCompact reports whether a uses the blocked compressed layout.
func (a *Adj) IsCompact() bool { return a.c != nil }

// N returns the number of vertices.
func (a *Adj) N() int {
	if a.c != nil {
		return a.c.n
	}
	return len(a.OA) - 1
}

// M returns the number of directed edges.
func (a *Adj) M() int {
	if a.c != nil {
		return int(a.c.m)
	}
	return len(a.NA)
}

// MemBytes returns the resident byte footprint of the adjacency storage.
func (a *Adj) MemBytes() uint64 {
	if a.c != nil {
		return a.c.memBytes()
	}
	return 8*uint64(len(a.OA)) + 4*uint64(len(a.NA))
}

// Degree returns the number of neighbors of v.
//
//popt:hot
func (a *Adj) Degree(v V) int {
	if a.c != nil {
		return a.c.degree(v)
	}
	return int(a.OA[v+1] - a.OA[v])
}

// Start returns the global edge index of v's first neighbor — OA[v] on the
// plain layout. v == N() is allowed and returns M().
//
//popt:hot
func (a *Adj) Start(v V) uint64 {
	if a.c != nil {
		return a.c.start(v)
	}
	return a.OA[v]
}

// Neighs returns the (sorted) neighbor list of v. On the plain layout the
// slice aliases the underlying NA storage and must not be modified; on the
// compact layout it is freshly decoded per call, so hot paths should use
// IterFrom, Neighbors, or CopyNeighbors instead.
//
//popt:hot
func (a *Adj) Neighs(v V) []V {
	if a.c != nil {
		return a.c.neighsAlloc(v)
	}
	return a.NA[a.OA[v]:a.OA[v+1]]
}

// Neighbors returns the sorted neighbor list of v without allocating: the
// plain layout returns the NA alias, the compact layout decodes into *buf
// (growing it as needed) and returns the filled prefix. The result is
// invalidated by the next call with the same buf and must not be modified.
//
//popt:hot
func (a *Adj) Neighbors(v V, buf *[]V) []V {
	if a.c == nil {
		return a.NA[a.OA[v]:a.OA[v+1]]
	}
	d := a.c.degree(v)
	if cap(*buf) < d {
		*buf = growV(*buf, d)
	}
	dst := (*buf)[:d]
	a.c.decodeInto(v, dst)
	return dst
}

// growV is the cold buffer-growth path of Neighbors and NeighborIter,
// kept out of their inlining budget.
//
//go:noinline
func growV(buf []V, d int) []V {
	if c := cap(buf); c*2 > d {
		d = c * 2
	}
	return make([]V, d)
}

// CopyNeighbors copies v's neighbors into dst (which must have room for
// Degree(v) elements) and returns the count.
//
//popt:hot
func (a *Adj) CopyNeighbors(dst []V, v V) int {
	if a.c != nil {
		return a.c.decodeInto(v, dst)
	}
	return copy(dst, a.NA[a.OA[v]:a.OA[v+1]])
}

// NextAfter returns the smallest neighbor of v that is strictly greater
// than cur, and ok=false if no such neighbor exists. In a pull execution
// that is the outer-loop iteration at which srcData[v] is next referenced;
// it is the primitive on which T-OPT is built. The plain layout binary
// searches (hand rolled: sort.Search's closure costs an indirect call per
// probe on what is a per-eviction-candidate operation); the compact layout
// decode-scans forward with early exit.
//
//popt:hot
func (a *Adj) NextAfter(v V, cur V) (next V, ok bool) {
	if a.c != nil {
		return a.c.nextAfter(v, cur)
	}
	ns := a.NA[a.OA[v]:a.OA[v+1]]
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[mid] > cur {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(ns) {
		return 0, false
	}
	return ns[lo], true
}

// NeighborIter walks vertices in ascending order, yielding each vertex's
// sorted neighbor list and the global edge index of its first neighbor.
// It is the layout-neutral form of the canonical CSR inner loop
//
//	for e := OA[v]; e < OA[v+1]; e++ { ... NA[e] ... }
//
// On the plain layout Next is two loads and a subslice; on the compact
// layout it decodes each list in one forward pass, never paying the
// random-access block prefix. The returned slice is invalidated by the
// next call and must not be modified.
type NeighborIter struct {
	// Plain layout cursors.
	oa []uint64
	na []V
	// Compact layout cursors.
	c    *adjCompact
	buf  []V
	pos  uint64 // byte offset of vertex v's encoded list
	edge uint64 // global edge index of vertex v's first neighbor
	exc  int    // exception-table cursor (first entry at vertex >= v)
	v    V      // next vertex to yield
}

// IterFrom returns an iterator positioned at vertex v.
func (a *Adj) IterFrom(v V) NeighborIter {
	if a.c == nil {
		return NeighborIter{oa: a.OA[v:], na: a.NA}
	}
	return NeighborIter{
		c:    a.c,
		pos:  a.c.vpos(v),
		edge: a.c.start(v),
		exc:  a.c.excIndex(v),
		v:    v,
	}
}

// Next yields the neighbors of the current vertex and the global edge
// index of its first neighbor, then advances. Calling Next more than
// N()-v times after IterFrom(v) is invalid.
//
//popt:hot
func (it *NeighborIter) Next() (ns []V, start uint64) {
	if it.c == nil {
		lo := it.oa[0]
		hi := it.oa[1]
		it.oa = it.oa[1:]
		return it.na[lo:hi:hi], lo
	}
	return it.nextCompact()
}

// nextCompact is the compact-layout decode step: one varint per neighbor,
// sequential in the data array.
//
//popt:hot
func (it *NeighborIter) nextCompact() (ns []V, start uint64) {
	c := it.c
	d := int(c.deg[it.v])
	if d == degEscape {
		d = int(c.excDeg[it.exc])
		it.exc++
	}
	if cap(it.buf) < d {
		it.buf = growV(it.buf, d)
	}
	dst := it.buf[:d]
	pos := it.pos
	if d > 0 {
		data := c.data
		x, p := uvarintAt(data, pos)
		prev := V(x)
		dst[0] = prev
		for i := 1; i < d; i++ {
			gap, p2 := uvarintAt(data, p)
			prev += V(gap) + 1
			dst[i] = prev
			p = p2
		}
		pos = p
	}
	it.pos = pos
	start = it.edge
	it.edge += uint64(d)
	it.v++
	return dst, start
}

// Graph is an immutable directed graph stored in both traversal directions.
//
//popt:frozen
type Graph struct {
	// Out is the CSR: Out.Neighs(s) are the destinations of edges leaving s.
	Out Adj
	// In is the CSC: In.Neighs(d) are the sources of edges entering d.
	In Adj
	// Name labels the graph in reports ("KRON-20", "URAND-18", ...).
	Name string
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.Out.N() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.Out.M() }

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d m=%d avgDeg=%.1f}", g.Name, g.NumVertices(), g.NumEdges(), g.AvgDegree())
}

// Renamed returns a graph that shares g's adjacency storage but carries a
// different report label. The copy is a fresh value, so callers can
// relabel a published graph without mutating it.
func (g *Graph) Renamed(name string) *Graph {
	return &Graph{Out: g.Out, In: g.In, Name: name}
}

// Edge is a directed edge used by builders and generators.
type Edge struct {
	Src, Dst V
}

// FromEdges builds a Graph (both CSR and CSC) from a directed edge list.
// Self-loops are kept, duplicate edges are removed, and neighbor lists come
// out sorted. n is the number of vertices; every endpoint must be < n.
func FromEdges(name string, n int, edges []Edge) *Graph {
	out := adjFromEdges(n, edges, false)
	// The in-adjacency is derived from the built CSR rather than from the
	// raw edges: a stable scatter of the sorted-unique pairs needs no
	// per-vertex sort, dedup, or compaction (see adjTranspose), roughly
	// halving construction cost versus two full builds. The bytes are
	// identical to adjFromEdges(n, edges, true).
	in := adjTranspose(n, out)
	return &Graph{Out: out, In: in, Name: name}
}

// Transpose returns a graph with Out and In swapped (edges reversed). The
// underlying arrays are shared, not copied.
func (g *Graph) Transpose() *Graph {
	return &Graph{Out: g.In, In: g.Out, Name: g.Name + "-T"}
}

// Symmetrize returns the undirected closure of g: every edge in both
// directions, self-loops dropped. Vertex v's list is the duplicate-free
// merge of its out- and in-lists minus v itself, written in two passes
// (count, then fill) into one exact-size CSR. The closure is its own
// transpose, so Out and In share that one adjacency. A compact input
// yields a compact result, compacted once and shared the same way.
func Symmetrize(g *Graph) *Graph {
	n := g.NumVertices()
	oa := make([]uint64, n+1)
	out, in := g.Out.IterFrom(0), g.In.IterFrom(0)
	for v := 0; v < n; v++ {
		outs, _ := out.Next()
		ins, _ := in.Next()
		oa[v+1] = oa[v] + uint64(mergeUnion(nil, outs, ins, V(v)))
	}
	na := make([]V, oa[n])
	out, in = g.Out.IterFrom(0), g.In.IterFrom(0)
	for v := 0; v < n; v++ {
		outs, _ := out.Next()
		ins, _ := in.Next()
		mergeUnion(na[oa[v]:oa[v+1]], outs, ins, V(v))
	}
	sym := Adj{OA: oa, NA: na}
	if g.Out.IsCompact() {
		plain := sym
		sym = Adj{c: compactFromPlain(&plain)}
	}
	return &Graph{Out: sym, In: sym, Name: g.Name + "-sym"}
}

// mergeUnion writes the sorted union of the sorted, duplicate-free lists x
// and y, leaving out skip, into dst and returns its length; a nil dst only
// counts.
func mergeUnion(dst, x, y []V, skip V) int {
	k, i, j := 0, 0, 0
	for i < len(x) || j < len(y) {
		var u V
		switch {
		case j == len(y) || (i < len(x) && x[i] < y[j]):
			u = x[i]
			i++
		case i == len(x) || y[j] < x[i]:
			u = y[j]
			j++
		default: // in both lists
			u = x[i]
			i++
			j++
		}
		if u == skip {
			continue
		}
		if dst != nil {
			dst[k] = u
		}
		k++
	}
	return k
}

// MaxDegree returns the maximum out-degree and the vertex attaining it.
func (g *Graph) MaxDegree() (deg int, at V) {
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Out.Degree(V(v)); d > deg {
			deg, at = d, V(v)
		}
	}
	return deg, at
}

// DegreeHistogram returns counts of out-degrees bucketed by powers of two:
// bucket i counts vertices with degree in [2^i, 2^(i+1)). Bucket 0 also
// includes degree-0 vertices.
func (g *Graph) DegreeHistogram() []int {
	var hist []int
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Out.Degree(V(v))
		b := 0
		for x := d; x > 1; x >>= 1 {
			b++
		}
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}

// Validate checks structural invariants (monotone offsets, sorted unique
// neighbor lists, in/out edge counts matching, endpoints in range) and
// returns a descriptive error on the first violation. It exists for tests
// and for validating externally loaded graphs.
func (g *Graph) Validate() error {
	if g.Out.N() != g.In.N() {
		return fmt.Errorf("graph %s: out has %d vertices, in has %d", g.Name, g.Out.N(), g.In.N())
	}
	if g.Out.M() != g.In.M() {
		return fmt.Errorf("graph %s: out has %d edges, in has %d", g.Name, g.Out.M(), g.In.M())
	}
	for _, da := range []struct {
		dir string
		a   *Adj
	}{{"out", &g.Out}, {"in", &g.In}} {
		dir, a := da.dir, da.a
		n := a.N()
		if a.Start(0) != 0 || a.Start(V(n)) != uint64(a.M()) {
			return fmt.Errorf("graph %s %s: offsets must span [0,%d], got [%d,%d]", g.Name, dir, a.M(), a.Start(0), a.Start(V(n)))
		}
		it := a.IterFrom(0)
		for v := 0; v < n; v++ {
			ns, start := it.Next()
			if start != a.Start(V(v)) || len(ns) != a.Degree(V(v)) {
				return fmt.Errorf("graph %s %s: iterator disagrees with random access at vertex %d", g.Name, dir, v)
			}
			for i, u := range ns {
				if int(u) >= n {
					return fmt.Errorf("graph %s %s: vertex %d has out-of-range neighbor %d", g.Name, dir, v, u)
				}
				if i > 0 && ns[i-1] >= u {
					return fmt.Errorf("graph %s %s: neighbors of %d not sorted/unique at %d", g.Name, dir, v, i)
				}
			}
		}
	}
	// Every out-edge must appear as an in-edge and vice versa. Membership
	// goes through NextAfter so the compact layout is not decoded per
	// probe: v is an in-neighbor of u iff the smallest in-neighbor
	// strictly greater than v-1 is v (v == 0 checks the first neighbor
	// directly, since cur would wrap).
	var scratch, first []V
	for v := 0; v < g.Out.N(); v++ {
		for _, u := range g.Out.Neighbors(V(v), &scratch) {
			present := false
			if v == 0 {
				ns := g.In.Neighbors(u, &first)
				present = len(ns) > 0 && ns[0] == 0
			} else if next, ok := g.In.NextAfter(u, V(v)-1); ok {
				present = next == V(v)
			}
			if !present {
				return fmt.Errorf("graph %s: edge %d->%d missing from CSC", g.Name, v, u)
			}
		}
	}
	return nil
}
