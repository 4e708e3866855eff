package kernels

import (
	"fmt"

	"popt/internal/graph"
	"popt/internal/mem"
)

// misMaxRounds caps simulated rounds (iteration sampling, as the paper
// does for frontier kernels; full convergence on high-diameter meshes
// takes O(diameter) rounds).
const misMaxRounds = 8

// Vertex states for MIS.
const (
	misUndecided uint32 = iota
	misIn
	misOut
)

// NewMIS builds the Maximal Independent Set workload (Ligra MIS):
// priority-ordered rounds where a vertex joins the set once all
// higher-priority (lower-ID) neighbors are decided out, and leaves once
// any neighbor joins. Independence is an undirected property, so the
// kernel runs on the symmetrized graph (Ligra assumes symmetric input).
// Irregular streams: the 4 B status array and the 1-bit frontier of
// still-undecided vertices (Table II: 4 B & 1 bit, pull-mostly,
// transpose = CSR).
func NewMIS(gIn *graph.Graph) *Workload {
	g := graph.Symmetrize(gIn)
	n := g.NumVertices()
	sp := mem.NewSpace()
	statusArr := sp.AllocBytes("status", n, 4, true)
	frontierArr := sp.Alloc("frontier", n, 1, true)
	oaArr := sp.AllocBytes("cscOA", n+1, 8, false)
	naArr := sp.AllocBytes("cscNA", g.NumEdges(), 4, false)

	status := make([]uint32, n)
	next := make([]uint32, n)
	frontier := make([]bool, n)
	nextFrontier := make([]bool, n)
	rounds := 0

	w := &Workload{
		Name: "MIS", G: g, Space: sp,
		Irregular:    []*mem.Array{statusArr, frontierArr},
		RefAdj:       &g.Out, // symmetric: Out == In
		Pull:         true,
		UsesFrontier: true,
	}
	w.run = func(r *Runner) {
		for v := 0; v < n; v++ {
			status[v] = misUndecided
			frontier[v] = true
			r.Store(statusArr, v, PCStreamWrite)
		}
		for round := 0; round < misMaxRounds; round++ {
			rounds = round + 1
			any := false
			// Only rounds with a dense undecided frontier are simulated
			// in detail (sparse rounds would run sparse/push under a
			// direction-switching framework).
			r.SetMuted(EdgeDensity(frontier, &g.Out) < PullDensityThreshold)
			r.StartIteration()
			cscIt := g.In.IterFrom(0)
			for dst := 0; dst < n; dst++ {
				r.SetVertex(graph.V(dst))
				srcs, lo := cscIt.Next()
				next[dst] = status[dst]
				nextFrontier[dst] = false
				if status[dst] != misUndecided {
					continue
				}
				r.Load(oaArr, dst, PCOffsets)
				canJoin := true
				mustLeave := false
				for i, src := range srcs {
					r.Load(naArr, int(lo)+i, PCNeighbors)
					r.Load(frontierArr, int(src), PCFrontierRead)
					r.Load(statusArr, int(src), PCIrregRead)
					switch {
					case status[src] == misIn:
						mustLeave = true
					case src < graph.V(dst) && status[src] == misUndecided:
						canJoin = false
					}
					r.Tick(1)
				}
				switch {
				case mustLeave:
					next[dst] = misOut
					any = true
					r.Store(statusArr, dst, PCIrregWrite)
				case canJoin:
					next[dst] = misIn
					any = true
					r.Store(statusArr, dst, PCIrregWrite)
				default:
					nextFrontier[dst] = true // still undecided
				}
				r.Store(frontierArr, dst, PCFrontierWrite)
				r.Tick(2)
			}
			copy(status, next)
			frontier, nextFrontier = nextFrontier, frontier
			if !any {
				break
			}
		}
		r.SetMuted(false)
	}
	w.check = func() error {
		// Golden: the lexicographically-first MIS, which the
		// priority-ordered rounds converge to. Decided vertices must agree
		// with it; undecided vertices are permitted only if the round cap
		// hit before convergence.
		golden := goldenLexFirstMIS(g)
		decided := 0
		for v := 0; v < n; v++ {
			switch status[v] {
			case misIn:
				if !golden[v] {
					return fmt.Errorf("MIS: vertex %d joined but is not in the lex-first MIS", v)
				}
				decided++
			case misOut:
				if golden[v] {
					return fmt.Errorf("MIS: vertex %d left but belongs to the lex-first MIS", v)
				}
				decided++
			}
		}
		if decided == 0 {
			return fmt.Errorf("MIS: nothing decided after %d rounds", rounds)
		}
		// Independence among decided-in vertices.
		for v := 0; v < n; v++ {
			if status[v] != misIn {
				continue
			}
			for _, u := range g.Out.Neighs(graph.V(v)) {
				if u != graph.V(v) && status[u] == misIn {
					return fmt.Errorf("MIS: adjacent vertices %d and %d both in set", v, u)
				}
			}
		}
		return nil
	}
	return w
}

// goldenLexFirstMIS computes the lexicographically-first maximal
// independent set greedily.
func goldenLexFirstMIS(g *graph.Graph) []bool {
	n := g.NumVertices()
	in := make([]bool, n)
	blocked := make([]bool, n)
	it := g.Out.IterFrom(0)
	for v := 0; v < n; v++ {
		us, _ := it.Next()
		if blocked[v] {
			continue
		}
		in[v] = true
		for _, u := range us {
			if u != graph.V(v) {
				blocked[u] = true
			}
		}
	}
	return in
}
