package bench

import (
	"fmt"

	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/perf"
)

// Fig10 reproduces Figure 10, the headline result: speedup and LLC miss
// reduction relative to LRU for DRRIP, P-OPT and T-OPT across all five
// applications and all inputs. The paper reports P-OPT at +22% speedup and
// -24% misses vs DRRIP on average (+33%/-35% vs LRU), within 12% of T-OPT.
func Fig10(c Config) *Report {
	c = c.withArtifacts()
	rep := &Report{
		ID: "fig10", Title: "Speedups and LLC miss reductions vs LRU",
		Notes: []string{
			"Paper averages vs DRRIP: P-OPT +22% speedup, -24% misses; P-OPT within 12% of T-OPT.",
			"Radii skips the mesh input (direction switching never flips to pull there), as in the paper.",
		},
		Header: []string{"app", "graph",
			"DRRIP speedup", "P-OPT speedup", "T-OPT speedup",
			"DRRIP miss", "P-OPT miss", "T-OPT miss"},
	}
	setups := []Setup{DRRIPSetup(), POPTSetup(core.InterIntra, 8, true), TOPTSetup()}
	type agg struct {
		speedSum, missSum float64
		n                 int
	}
	// One cell per (kernel, graph): one pass simulates the LRU baseline and
	// the three compared setups, and the cell decides the skip from LRU (its
	// note text must land in serial enumeration order).
	type cellOut struct {
		skipped bool
		lru     Result
		res     []Result
	}
	benches := kernels.All()
	suite := c.Suite()
	results := make([][]cellOut, len(benches))
	var cells []Cell
	for bi, b := range benches {
		results[bi] = make([]cellOut, len(suite))
		for gi, g := range suite {
			if b.Name == "Radii" && isMesh(g) {
				continue
			}
			cells = append(cells, Cell{
				Key: "fig10/" + b.Name + "/" + g.Name,
				Run: func() {
					rs := c.runSetups(g, b.Name, b.New(g),
						append([]Setup{LRUSetup()}, setups...)...)
					// Direction switching never produced a dense pull round
					// on this input when LRU saw almost no LLC traffic (the
					// paper skips Radii on HBUBL for the same reason).
					results[bi][gi] = cellOut{skipped: rs[0].H.LLC.Stats.Accesses < 1000, lru: rs[0], res: rs[1:]}
				},
			})
		}
	}
	c.runCells(cells)
	aggs := make([]agg, len(setups))
	for bi, b := range benches {
		for gi, g := range suite {
			if b.Name == "Radii" && isMesh(g) {
				continue
			}
			out := results[bi][gi]
			if out.skipped {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s on %s skipped: no dense pull iterations", b.Name, g.Name))
				continue
			}
			lruCycles := out.lru.Breakdown()
			row := []string{b.Name, g.Name}
			var speeds, misses []string
			for i := range setups {
				res := out.res[i]
				sp := perf.Speedup(lruCycles, res.Breakdown())
				mr := MissReduction(out.lru, res)
				speeds = append(speeds, fmt.Sprintf("%.2fx", sp))
				misses = append(misses, pct(mr))
				aggs[i].speedSum += sp
				aggs[i].missSum += mr
				aggs[i].n++
			}
			rep.AddRow(append(append(row, speeds...), misses...)...)
		}
	}
	for i, s := range setups {
		rep.Notes = append(rep.Notes, fmt.Sprintf("Mean %-6s: speedup %.2fx, miss reduction %+.1f%% (vs LRU)",
			s.Name, aggs[i].speedSum/float64(aggs[i].n), aggs[i].missSum/float64(aggs[i].n)))
	}
	return rep
}

// Fig11 reproduces Figure 11: P-OPT (two resident columns) vs P-OPT-SE
// (one column, coarser lookahead) as the vertex count grows, annotated
// with reserved LLC ways. Small graphs favor P-OPT's better metadata;
// large graphs flip to P-OPT-SE once reservations eat the LLC.
func Fig11(c Config) *Report {
	rep := &Report{
		ID: "fig11", Title: "P-OPT vs P-OPT-SE across graph sizes (PageRank, miss reduction over DRRIP)",
		Notes:  []string{"Boxes in the paper annotate reserved ways; columns 'ways' below do the same."},
		Header: []string{"graph", "vertices", "P-OPT ways", "P-OPT", "P-OPT-SE ways", "P-OPT-SE"},
	}
	var sizes []int
	switch c.Scale {
	case graph.ScaleTiny:
		sizes = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13}
	case graph.ScaleLarge:
		sizes = []int{1 << 21, 1 << 22, 1 << 23, 1 << 24}
	default:
		sizes = []int{1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19}
	}
	// One cell per size: the generated graph is private to its cell (the
	// artifact cache would otherwise pin every throwaway size forever).
	type cellOut struct {
		name           string
		base, popt, se Result
	}
	results := make([]cellOut, len(sizes))
	cells := make([]Cell, len(sizes))
	for i, n := range sizes {
		cells[i] = Cell{
			Key: fmt.Sprintf("fig11/n=%d", n),
			Run: func() {
				g := graph.Uniform(n, 4*n, c.Seed)
				// The graph is private to this cell, and so is its stream:
				// DRRIP runs live and the P-OPT variants follow it in the
				// same pass (from a warm corpus, all three replay the
				// entry).
				rs := c.runSetups(g, "PR", kernels.NewPageRank(g),
					DRRIPSetup(),
					POPTSetup(core.InterIntra, 8, true),
					POPTSetup(core.SingleEpoch, 8, true))
				results[i] = cellOut{name: g.Name, base: rs[0], popt: rs[1], se: rs[2]}
			},
		}
	}
	c.runCells(cells)
	for i, n := range sizes {
		out := results[i]
		rep.AddRow(out.name, fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", out.popt.Reserved), pct(MissReduction(out.base, out.popt)),
			fmt.Sprintf("%d", out.se.Reserved), pct(MissReduction(out.base, out.se)))
	}
	return rep
}

func isMesh(g *graph.Graph) bool {
	return len(g.Name) >= 5 && g.Name[:5] == "HBUBL"
}
