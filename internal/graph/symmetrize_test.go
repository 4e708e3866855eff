package graph

import (
	"bytes"
	"testing"
)

// edgeListSymmetrize is the reference undirected closure: both directions
// of every edge, self-loops skipped, built by FromEdges, then compacted if
// the input is compact.
func edgeListSymmetrize(g *Graph) *Graph {
	n := g.NumVertices()
	edges := make([]Edge, 0, 2*g.NumEdges())
	it := g.Out.IterFrom(0)
	for u := 0; u < n; u++ {
		vs, _ := it.Next()
		for _, v := range vs {
			if V(u) == v {
				continue
			}
			edges = append(edges, Edge{Src: V(u), Dst: v}, Edge{Src: v, Dst: V(u)})
		}
	}
	sym := FromEdges(g.Name+"-sym", n, edges)
	if g.Out.IsCompact() {
		sym = sym.WithLayout(LayoutCompact)
	}
	return sym
}

// symmetrizeInputs is every tiny suite graph plus degenerate shapes.
func symmetrizeInputs() []*Graph {
	gs := append([]*Graph(nil), Suite(ScaleTiny, 42)...)
	return append(gs,
		FromEdges("loops", 4, []Edge{{0, 0}, {1, 1}, {1, 2}, {3, 3}}),
		FromEdges("dups", 4, []Edge{{0, 1}, {0, 1}, {1, 0}, {2, 3}, {3, 2}, {3, 2}}),
		FromEdges("oneway", 5, []Edge{{0, 4}, {1, 3}, {4, 2}, {2, 0}}),
		FromEdges("isolated", 9, []Edge{{2, 6}, {6, 7}}),
		FromEdges("noedges", 6, nil),
		FromEdges("empty", 0, nil),
	)
}

// TestSymmetrizeMatchesEdgeListBuild pins the per-vertex merge to the edge
// list build it replaces, in both layouts: the same bytes, one adjacency
// shared by Out and In, and a valid graph. A plain input allocates the
// result's offsets, neighbors, name and Graph, and nothing that grows with
// the edge count.
func TestSymmetrizeMatchesEdgeListBuild(t *testing.T) {
	for _, plain := range symmetrizeInputs() {
		for _, g := range []*Graph{plain, plain.WithLayout(LayoutCompact)} {
			got, want := Symmetrize(g), edgeListSymmetrize(g)
			name := got.Name + "/" + map[bool]string{false: "plain", true: "compact"}[g.Out.IsCompact()]
			if got.Name != want.Name {
				t.Errorf("%s: name %q, want %q", name, got.Name, want.Name)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if got.Out.IsCompact() != g.Out.IsCompact() {
				t.Errorf("%s: result compact=%v", name, got.Out.IsCompact())
			}
			if got.Out.IsCompact() {
				if got.Out.c != got.In.c {
					t.Errorf("%s: Out and In hold separate compact storage", name)
				}
				if !bytes.Equal(appendCompactAdj(nil, got.Out.c), appendCompactAdj(nil, want.Out.c)) {
					t.Errorf("%s: compact bytes differ from the edge-list build", name)
				}
				continue
			}
			if &got.Out.OA[0] != &got.In.OA[0] || (got.NumEdges() > 0 && &got.Out.NA[0] != &got.In.NA[0]) {
				t.Errorf("%s: Out and In hold separate arrays", name)
			}
			if !equalU64(got.Out.OA, want.Out.OA) || !equalV(got.Out.NA, want.Out.NA) {
				t.Errorf("%s: CSR differs from the edge-list build", name)
			}
			wantAllocs := 4.0
			if got.NumEdges() == 0 {
				wantAllocs = 3 // an empty NA allocates nothing
			}
			if allocs := testing.AllocsPerRun(3, func() { Symmetrize(g) }); allocs != wantAllocs {
				t.Errorf("%s (m=%d): %v allocations, want %v", name, g.NumEdges(), allocs, wantAllocs)
			}
		}
	}
}
