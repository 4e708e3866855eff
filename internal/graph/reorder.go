package graph

// This file implements vertex reorderings. Degree-Based Grouping (DBG,
// Faldu et al., IISWC 2019) is required by the GRASP replacement policy
// (Fig. 12a): GRASP expects the input graph's hottest vertices packed at
// the front of the vertex ID space, which DBG achieves by grouping vertices
// into power-of-two degree classes ordered by descending degree while
// preserving relative order within a class (preserving intra-class
// locality of the original ordering).

// Permutation maps old vertex IDs to new vertex IDs: newID := p[oldID].
type Permutation []V

// DBG computes the Degree-Based Grouping permutation of g using total
// (in+out) degree. Group k holds vertices with degree in [2^k, 2^(k+1));
// groups are laid out from highest class to lowest, so hub vertices end up
// in a small dense prefix of the ID space.
func DBG(g *Graph) Permutation {
	n := g.NumVertices()
	class := make([]int, n)
	maxClass := 0
	for v := 0; v < n; v++ {
		d := g.Out.Degree(V(v)) + g.In.Degree(V(v))
		c := 0
		for x := d; x > 1; x >>= 1 {
			c++
		}
		class[v] = c
		if c > maxClass {
			maxClass = c
		}
	}
	// Stable counting layout: highest class first, original order within.
	counts := make([]int, maxClass+2)
	for _, c := range class {
		counts[maxClass-c]++ // bucket 0 = highest class
	}
	start := make([]int, maxClass+2)
	for i := 1; i <= maxClass+1; i++ {
		start[i] = start[i-1] + counts[i-1]
	}
	p := make(Permutation, n)
	cursor := make([]int, maxClass+1)
	for v := 0; v < n; v++ {
		b := maxClass - class[v]
		p[v] = V(start[b] + cursor[b])
		cursor[b]++
	}
	return p
}

// Apply relabels g's vertices with p and rebuilds both directions. The
// result is a new graph; g is unmodified.
func (p Permutation) Apply(g *Graph) *Graph {
	n := g.NumVertices()
	edges := make([]Edge, 0, g.NumEdges())
	it := g.Out.IterFrom(0)
	for s := 0; s < n; s++ {
		ns, _ := it.Next()
		for _, d := range ns {
			edges = append(edges, Edge{p[s], p[d]})
		}
	}
	return FromEdges(g.Name+"-dbg", n, edges)
}
