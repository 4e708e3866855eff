package cache

import "popt/internal/mem"

// BeladyMIN is true offline MIN replacement: given the exact future access
// trace, it evicts the line referenced furthest in the future. It exists
// as the gold standard to validate T-OPT against — Section III's claim is
// precisely that the graph transpose lets T-OPT reproduce MIN's decisions
// for irregular graph data without recording a trace. MIN is usable only
// on a single level fed the full trace (a policy below filtering levels
// would see a different stream than the one it was primed with).
type BeladyMIN struct {
	g Geometry
	// nextOcc[i] is the trace index of the next access to the same line
	// after position i (len(trace) if none).
	nextOcc []int
	// lineNext maps a resident line to the trace index of its next use.
	lineNext map[uint64]int
	pos      int
	trace    []uint64
}

// NewBeladyMIN precomputes next-occurrence indexes for a line-address
// trace. Every subsequent Access against the level MUST present exactly
// this trace in order.
func NewBeladyMIN(trace []uint64) *BeladyMIN {
	n := len(trace)
	next := make([]int, n)
	last := make(map[uint64]int, 1024)
	for i := n - 1; i >= 0; i-- {
		la := trace[i] &^ (mem.LineSize - 1)
		if j, ok := last[la]; ok {
			next[i] = j
		} else {
			next[i] = n
		}
		last[la] = i
	}
	return &BeladyMIN{nextOcc: next, trace: trace, lineNext: make(map[uint64]int, 1024)}
}

// Name implements Policy.
func (p *BeladyMIN) Name() string { return "Belady-MIN" }

// Bind implements Policy.
func (p *BeladyMIN) Bind(g Geometry) { p.g = g }

// step records that the trace advanced by one access for line la.
func (p *BeladyMIN) step(la uint64) {
	if p.pos < len(p.trace) {
		want := p.trace[p.pos] &^ (mem.LineSize - 1)
		if want != la {
			panic("cache: BeladyMIN fed an access that diverges from its priming trace")
		}
		p.lineNext[la] = p.nextOcc[p.pos]
	}
	p.pos++
}

// OnHit implements Policy.
func (p *BeladyMIN) OnHit(set, way int, acc mem.Access) { p.step(acc.LineAddr()) }

// OnFill implements Policy.
func (p *BeladyMIN) OnFill(set, way int, acc mem.Access) { p.step(acc.LineAddr()) }

// OnEvict implements Policy.
func (p *BeladyMIN) OnEvict(set, way int) {}

// Victim implements Policy: furthest next use wins.
func (p *BeladyMIN) Victim(set int, tags []uint64, _ mem.Access) int {
	best, bestNext := p.g.ReservedWays, -1
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		next, ok := p.lineNext[tags[w]]
		if !ok {
			next = len(p.trace) // never primed: treat as dead
		}
		if next > bestNext {
			best, bestNext = w, next
		}
	}
	return best
}

// SimulateTrace replays a line-address trace through a single level,
// returning its stats. It is the harness for offline-policy studies.
func SimulateTrace(l *Level, trace []uint64) Stats {
	for _, addr := range trace {
		a := mem.Access{Addr: addr}
		if !l.Access(a) {
			l.Fill(a)
		}
	}
	return l.Stats
}
