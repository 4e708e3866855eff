package trace

import (
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
)

// epochResetter is implemented by P-OPT, whose streaming engine re-fetches
// the first column when a traversal restarts.
type epochResetter interface{ ResetEpoch() }

// tileSetter is implemented by tile-switching policies (core.TilePolicy).
type tileSetter interface{ SetTile(int) }

// Sim is the live-simulation sink: it threads the event stream into a
// cache hierarchy, forwards outer-loop progress to vertex-indexed policies
// (the update_index instruction), and owns the run's instruction counter —
// the MPKI denominator lives here, not in the hierarchy, so a replayed
// stream is charged exactly like a live one. A Sim with a nil hierarchy
// forwards hook events but simulates (and charges) nothing.
type Sim struct {
	H *cache.Hierarchy
	// Hook receives update_index events (P-OPT / T-OPT); nil otherwise.
	Hook core.VertexIndexed
	// Filter, when set, may absorb an access before it reaches the
	// hierarchy (returns true if absorbed). The PHI model uses this to
	// coalesce commutative updates in-cache. Absorbed accesses still
	// charge their instruction, exactly as a real coalesced store retires.
	Filter func(acc mem.Access) bool
	// Instructions counts retired instructions: one per access plus every
	// tick. It is the denominator of MPKI.
	Instructions uint64

	// enc, when set by Record, receives the hook marks; the hierarchy's
	// Tap feeds it the LLC-visible accesses and writebacks between them.
	enc *LLCEncoder
}

// NewSim builds a live sink over h. hook may be nil.
func NewSim(h *cache.Hierarchy, hook core.VertexIndexed) *Sim {
	return &Sim{H: h, Hook: hook}
}

// Record attaches e to the run: e becomes the hierarchy's LLC tap and sees
// every hook event right after the hook does, so the encoded stream keeps
// hook events in order against the LLC-visible accesses. Record(nil)
// detaches it.
func (s *Sim) Record(e *LLCEncoder) {
	s.enc = e
	if e == nil {
		s.H.Tap = nil
	} else {
		s.H.Tap = e
	}
}

// Consume implements Sink: charge the batch's instructions, run each run
// of accesses between two marks through the hierarchy in one call, and
// deliver each mark at its position. With a Filter the accesses go one at
// a time, since the filter may itself reach into the hierarchy.
//
//popt:hot
func (s *Sim) Consume(b Batch) {
	if s.H != nil {
		s.Instructions += uint64(len(b.Accesses)) + b.Ticks
	}
	at := 0
	for _, m := range b.Marks {
		s.run(b.Accesses[at:m.At])
		at = int(m.At)
		s.mark(m)
	}
	s.run(b.Accesses[at:])
}

// run issues accs through the hierarchy (or through the filter).
//
//popt:hot
func (s *Sim) run(accs []mem.Access) {
	switch {
	case s.H == nil || len(accs) == 0:
	case s.Filter == nil:
		s.H.Run(accs)
	default:
		for _, acc := range accs {
			if !s.Filter(acc) {
				s.H.Access(acc)
			}
		}
	}
}

// mark delivers one hook event to the hook, then to an attached encoder.
func (s *Sim) mark(m Mark) {
	s.hook(m)
	if s.enc != nil {
		s.enc.mark(m)
	}
}

// hook delivers one hook event to the hook.
func (s *Sim) hook(m Mark) {
	switch m.Kind {
	case MarkVertex:
		s.SetVertex(graph.V(m.Val))
	case MarkIteration:
		s.StartIteration()
	case MarkTile:
		s.SetTile(m.Val)
	}
}

// SetVertex forwards outer-loop progress to the hook.
//
//popt:hot
func (s *Sim) SetVertex(v graph.V) {
	if s.Hook != nil {
		s.Hook.UpdateIndex(v)
	}
}

// StartIteration resets epoch-tracking policies; others see the traversal
// restart as progress to vertex 0.
func (s *Sim) StartIteration() {
	if er, ok := s.Hook.(epochResetter); ok {
		er.ResetEpoch()
	} else {
		s.SetVertex(0)
	}
}

// SetTile forwards tile switches to tile-aware policies.
func (s *Sim) SetTile(t int) {
	if ts, ok := s.Hook.(tileSetter); ok {
		ts.SetTile(t)
	}
}

// MPKI returns LLC misses per kilo-instruction, the paper's primary
// locality metric (Fig. 2, 4).
func (s *Sim) MPKI() float64 {
	if s.H == nil || s.Instructions == 0 {
		return 0
	}
	return float64(s.H.LLC.Stats.Misses) / (float64(s.Instructions) / 1000)
}
