package sched

import (
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
)

// This file builds the update-phase workloads of Fig. 14: the dominant
// Binning phase of software Propagation Blocking (Beamer et al., IPDPS
// 2017) and the direct scatter-update phase PHI accelerates. Both push one
// PageRank-style contribution per edge; they differ in where the write
// lands (sequential per-bin cursors vs. random dstData).

// UpdatePhase is a simulatable update phase over a graph.
type UpdatePhase struct {
	Name  string
	G     *graph.Graph
	Space *mem.Space
	// DstData is the scatter target; irregular for the scatter phase (PHI
	// and P-OPT manage it), nil-equivalent streaming role for binning.
	DstData *mem.Array
	// Bins is the binning buffer (binning phase only).
	Bins *mem.Array
	// NumBins is the bin count (binning phase only).
	NumBins int

	run func(r *kernels.Runner)
}

// Run simulates the phase, flushing r at the end.
func (u *UpdatePhase) Run(r *kernels.Runner) {
	u.run(r)
	r.Flush()
}

// NewScatterPhase builds the direct scatter-update phase: for every edge
// (src, dst), read contrib[src] (streaming by src) and update
// dstData[dst] (irregular). readModifyWrite selects whether each update
// loads the old value first; PHI's in-cache aggregation removes that read,
// so PHI setups run with readModifyWrite=false plus a PHIBuffer filter.
func NewScatterPhase(g *graph.Graph, readModifyWrite bool) *UpdatePhase {
	n := g.NumVertices()
	sp := mem.NewSpace()
	contrib := sp.AllocBytes("contrib", n, 4, false)
	dst := sp.AllocBytes("dstData", n, 4, true)
	oa := sp.AllocBytes("csrOA", n+1, 8, false)
	na := sp.AllocBytes("csrNA", g.NumEdges(), 4, false)
	u := &UpdatePhase{Name: "Scatter", G: g, Space: sp, DstData: dst}
	u.run = func(r *kernels.Runner) {
		r.StartIteration()
		csrIt := g.Out.IterFrom(0)
		for src := 0; src < n; src++ {
			r.SetVertex(graph.V(src))
			r.Load(oa, src, kernels.PCOffsets)
			r.Load(contrib, src, kernels.PCStreamRead)
			dsts, lo := csrIt.Next()
			for i, d := range dsts {
				r.Load(na, int(lo)+i, kernels.PCNeighbors)
				if readModifyWrite {
					r.Load(dst, int(d), kernels.PCIrregRead)
				}
				r.Store(dst, int(d), kernels.PCIrregWrite)
				r.Tick(2)
			}
		}
	}
	return u
}

// NewBinningPhase builds PB's binning phase: contributions append to
// numBins sequential bins keyed by destination range. The bins buffer
// holds one 8 B (dst, value) record per edge.
func NewBinningPhase(g *graph.Graph, numBins int) *UpdatePhase {
	n := g.NumVertices()
	m := g.NumEdges()
	if numBins < 1 {
		numBins = 1
	}
	sp := mem.NewSpace()
	contrib := sp.AllocBytes("contrib", n, 4, false)
	bins := sp.AllocBytes("bins", m, 8, false)
	oa := sp.AllocBytes("csrOA", n+1, 8, false)
	na := sp.AllocBytes("csrNA", m, 4, false)

	binRange := (n + numBins - 1) / numBins
	// Bin start offsets by counting destinations per bin.
	binStart := make([]int, numBins+1)
	countIt := g.Out.IterFrom(0)
	for u := 0; u < n; u++ {
		ds, _ := countIt.Next()
		for _, d := range ds {
			binStart[int(d)/binRange+1]++
		}
	}
	for b := 0; b < numBins; b++ {
		binStart[b+1] += binStart[b]
	}

	u := &UpdatePhase{Name: "PB-Binning", G: g, Space: sp, Bins: bins, NumBins: numBins}
	u.run = func(r *kernels.Runner) {
		cursor := make([]int, numBins)
		r.StartIteration()
		csrIt := g.Out.IterFrom(0)
		for src := 0; src < n; src++ {
			r.SetVertex(graph.V(src))
			r.Load(oa, src, kernels.PCOffsets)
			r.Load(contrib, src, kernels.PCStreamRead)
			ds, lo := csrIt.Next()
			for i, d := range ds {
				r.Load(na, int(lo)+i, kernels.PCNeighbors)
				b := int(d) / binRange
				r.Store(bins, binStart[b]+cursor[b], kernels.PCIrregWrite)
				cursor[b]++
				r.Tick(2)
			}
		}
	}
	return u
}
