// Package trace makes the simulator's memory reference stream a
// first-class, replayable artifact. The paper's evaluation is
// trace-driven: Pin captures each kernel's reference stream once and every
// replacement policy replays the same stream. This package provides the
// equivalent plumbing: kernels emit a typed event stream (memory accesses,
// outer-loop progress for the update_index instruction, iteration and tile
// boundaries) into a Sink, one buffered Batch at a time; the live cache
// simulation is one sink (Sim). What the LLC sees drives an entire policy
// zoo from one kernel run: a Fanout attached to the live Sim feeds it to
// follower Sims as it runs, and a compact varint/delta encoder
// (LLCEncoder, attached the same way) records it for later replay.
package trace

import (
	"popt/internal/mem"
)

// Sink consumes one kernel event stream as a sequence of batches. The
// concatenation of the batches, marks placed among the accesses, is the
// stream in program order; the stream for a given (workload, schedule) is
// identical no matter which sink consumes it or where the batch
// boundaries fall, which is what makes record/replay equivalent to live
// execution. The batch's slices belong to the emitter and are reused after
// Consume returns: a sink must copy anything it keeps.
type Sink interface {
	Consume(b Batch)
}

// Batch is a run of consecutive events.
//
//   - Accesses: memory references in order (the paper's ld/st stream).
//   - Marks: hook events, each placed among the accesses (see Mark).
//   - Ticks: non-memory instructions retired anywhere in the batch. The
//     instruction count (one per access plus every tick, the MPKI
//     denominator) is a run total that nothing reads mid-run, so the
//     ticks need no position.
type Batch struct {
	Accesses []mem.Access
	Marks    []Mark
	Ticks    uint64
}

// MarkKind identifies a hook event.
type MarkKind uint8

const (
	// MarkVertex is outer-loop progress to vertex Val, the update_index
	// instruction P-OPT and T-OPT consume.
	MarkVertex MarkKind = iota
	// MarkIteration begins a fresh pass over the vertices (P-OPT's
	// streaming engine re-fetches the first Rereference Matrix column).
	MarkIteration
	// MarkTile reports that a CSR-segmented kernel moved to tile Val.
	MarkTile
)

// Mark is one hook event of a batch. It fires after Accesses[:At] and
// before Accesses[At:]; marks are in stream order, so At never decreases
// and back-to-back marks share an At. Container replay places the marks
// of a decoded chunk among its probes the same way.
type Mark struct {
	At   int
	Kind MarkKind
	Val  int
}

// Nop is a Sink that discards every batch.
type Nop struct{}

// Consume implements Sink.
func (Nop) Consume(Batch) {}
