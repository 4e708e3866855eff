// Package kernels implements the paper's five graph applications (Table
// II) — PageRank, Connected Components, PageRank-Delta, Radii, and Maximal
// Independent Set — instrumented to drive the cache simulator with the
// same logical memory reference stream the real kernels generate, while
// simultaneously computing real (verifiable) results.
package kernels

import (
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
	"popt/internal/trace"
)

// PullDensityThreshold is the frontier density below which a
// direction-switching kernel would run the round in push mode; frontier
// kernels mute such rounds (Ligra's dense/sparse switch fires near
// |frontier edges| > |E|/20, measured here by EdgeDensity).
const PullDensityThreshold = 0.05

// EdgeDensity returns the fraction of the edge set incident to active
// frontier vertices — Ligra's dense/sparse switching criterion (a few hub
// vertices can make a numerically small frontier edge-dense).
func EdgeDensity(frontier []bool, adj *graph.Adj) float64 {
	if adj.M() == 0 {
		return 0
	}
	var active uint64
	for v, b := range frontier {
		if b {
			active += uint64(adj.Degree(graph.V(v)))
		}
	}
	return float64(active) / float64(adj.M())
}

// PC site identifiers. Each static load/store in a kernel gets a distinct
// PC so PC-indexed policies (SHiP-PC, Hawkeye) see realistic signatures.
const (
	PCOffsets uint16 = iota + 1
	PCNeighbors
	PCIrregRead
	PCIrregWrite
	PCStreamRead
	PCStreamWrite
	PCFrontierRead
	PCFrontierWrite
	PCCompRead
	PCCompWrite
)

// batchCap is the capacity of a Runner's event buffer, in accesses and
// in marks: 256 of each is 10 KiB per Runner. The runs a batch hands over
// are bounded by the hook events anyway (one outer-loop vertex's edges
// between SetVertex marks), so a longer buffer only saves the per-batch
// call, already negligible at this size. Must be a power of two.
const batchCap = 256

// Runner is the kernel-side emitter of the typed event stream. It buffers
// events — Load/Store as accesses, SetVertex/StartIteration/SetTile as
// trace.Marks at their position among the accesses, Tick as a per-batch
// count — and hands each full buffer to its trace.Sink as one
// trace.Batch. The sink decides what the stream means: live simulation
// (trace.Sim, optionally recording through a trace.LLCEncoder) or
// capture for locality analysis. Workload.Run and sched.UpdatePhase.Run
// flush at the end; code that drives a Runner by hand calls Flush before
// reading what the sink computed. A zero Runner (nil sink) performs pure
// computation: golden-model runs and preprocessing timing use it.
type Runner struct {
	sink trace.Sink

	// muted suppresses emission (accesses, instructions, hooks) while
	// computation proceeds. Frontier kernels mute their sparse rounds:
	// direction-switching executes those in push mode, and — like the
	// paper, which samples only pull iterations in detail — we exclude
	// them from the simulated reference stream for every policy alike.
	muted bool

	// The pending batch: acc[:nAcc], marks[:nMark] and ticks.
	nAcc, nMark int
	ticks       uint64
	acc         [batchCap]mem.Access
	marks       [batchCap]trace.Mark
}

// NewRunner builds a runner emitting into a live simulation over h (see
// trace.Sim). hook may be nil. Use NewSinkRunner to emit into any other
// sink; use Sim to reach the live sink's instruction counter and filter.
func NewRunner(h *cache.Hierarchy, hook core.VertexIndexed) *Runner {
	return &Runner{sink: trace.NewSim(h, hook)}
}

// NewSinkRunner builds a runner emitting into s.
func NewSinkRunner(s trace.Sink) *Runner {
	return &Runner{sink: s}
}

// Sim returns the live sink a NewRunner-built runner emits into, or nil
// for sink-less and custom-sink runners.
func (r *Runner) Sim() *trace.Sim {
	s, _ := r.sink.(*trace.Sim)
	return s
}

// Flush hands the pending events to the sink.
func (r *Runner) Flush() {
	if r.sink == nil || r.nAcc == 0 && r.nMark == 0 && r.ticks == 0 {
		return
	}
	r.sink.Consume(trace.Batch{Accesses: r.acc[:r.nAcc], Marks: r.marks[:r.nMark], Ticks: r.ticks})
	r.nAcc, r.nMark, r.ticks = 0, 0, 0
}

// access buffers one access, flushing first when the buffer is full.
//
//popt:hot
func (r *Runner) access(acc mem.Access) {
	if r.nAcc == batchCap {
		r.Flush()
	}
	// The mask is a no-op (the flush keeps nAcc < batchCap) that lets the
	// compiler drop the bounds check.
	r.acc[r.nAcc&(batchCap-1)] = acc
	r.nAcc++
}

// mark buffers one hook event at the current position.
//
//popt:hot
func (r *Runner) mark(k trace.MarkKind, val int) {
	if r.nMark == batchCap {
		r.Flush()
	}
	r.marks[r.nMark&(batchCap-1)] = trace.Mark{At: r.nAcc, Kind: k, Val: val}
	r.nMark++
}

// SetVertex reports the outer-loop vertex currently being processed.
//
//popt:hot
func (r *Runner) SetVertex(v graph.V) {
	if r.sink != nil && !r.muted {
		r.mark(trace.MarkVertex, int(v))
	}
}

// SetMuted switches emission off (true) or on (false); see muted.
func (r *Runner) SetMuted(m bool) { r.muted = m }

// SetTile reports that a segmented kernel moved to tile t.
func (r *Runner) SetTile(t int) {
	if r.sink != nil {
		r.mark(trace.MarkTile, t)
	}
}

// StartIteration marks the beginning of a fresh pass over the vertices.
func (r *Runner) StartIteration() {
	if r.sink != nil && !r.muted {
		r.mark(trace.MarkIteration, 0)
	}
}

// Load issues a read of element i of a.
//
//popt:hot
func (r *Runner) Load(a *mem.Array, i int, pc uint16) {
	if r.sink != nil && !r.muted {
		r.access(mem.Access{Addr: a.Addr(i), PC: pc})
	}
}

// Store issues a write of element i of a.
//
//popt:hot
func (r *Runner) Store(a *mem.Array, i int, pc uint16) {
	if r.sink != nil && !r.muted {
		r.access(mem.Access{Addr: a.Addr(i), PC: pc, Write: true})
	}
}

// Tick accounts n non-memory instructions.
//
//popt:hot
func (r *Runner) Tick(n uint64) {
	if r.sink != nil && !r.muted {
		r.ticks += n
	}
}

// Workload is one (kernel, graph) pair ready to simulate: the address
// space is laid out, the irregular arrays and the transpose that encodes
// their next references are identified, and run/check closures capture the
// kernel state.
type Workload struct {
	// Name is the kernel name ("PR", "CC", ...).
	Name string
	// G is the input graph.
	G *graph.Graph
	// Space is the simulated address space.
	Space *mem.Space
	// Irregular lists the arrays T-OPT/P-OPT manage, in Table II's order
	// (vertex data first, then frontier bits if any).
	Irregular []*mem.Array
	// RefAdj is the transpose of the traversal direction: Out for pull
	// kernels, In for push (Table II's "Transpose" row).
	RefAdj *graph.Adj
	// Pull reports the execution style for Table II.
	Pull bool
	// UsesFrontier reports whether a frontier bit-vector is irregular data.
	UsesFrontier bool

	run   func(r *Runner)
	check func() error
}

// Run simulates the kernel's reference stream through r (and computes the
// kernel's real results as a side effect), flushing r at the end.
func (w *Workload) Run(r *Runner) {
	w.run(r)
	r.Flush()
}

// Check validates the computed results against an independent golden
// implementation. It is only meaningful after Run.
func (w *Workload) Check() error { return w.check() }

// Builder constructs a fresh Workload for a graph; the suite of builders
// mirrors Table II.
type Builder struct {
	Name string
	New  func(g *graph.Graph) *Workload
}

// All returns the paper's five applications in Table II order.
func All() []Builder {
	return []Builder{
		{Name: "PR", New: NewPageRank},
		{Name: "CC", New: NewCC},
		{Name: "PR-Delta", New: NewPRDelta},
		{Name: "Radii", New: NewRadii},
		{Name: "MIS", New: NewMIS},
	}
}

// Extensions returns additional kernels beyond the paper's Table II suite
// (direction-optimizing BFS and Bellman-Ford SSSP); they use the same
// pull/frontier structure and are first-class workloads for the
// simulator, just not part of the paper's figures.
func Extensions() []Builder {
	return []Builder{
		{Name: "BFS", New: NewBFS},
		{Name: "SSSP", New: NewSSSP},
	}
}
