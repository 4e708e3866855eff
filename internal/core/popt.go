package core

import (
	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// Stream pairs an irregularly accessed array with its Rereference Matrix.
type Stream struct {
	Arr *mem.Array
	M   *Matrix
}

// POPT is the practical transpose-based policy (Sections IV-V). It looks
// up quantized next references in Rereference Matrix columns pinned in
// reserved LLC ways, pays the costs the paper models — reduced effective
// LLC capacity and an epoch-boundary column stream — and breaks
// next-reference ties with DRRIP.
type POPT struct {
	g       cache.Geometry
	streams []Stream
	cur     graph.V
	epoch   int
	tie     *cache.DRRIP
	// TieFirst disables the DRRIP tie-breaker (Section V-C) and keeps the
	// first candidate instead; an ablation knob for how much the
	// tie-breaking policy matters at a given quantization width.
	TieFirst bool

	// Ties counts replacements decided by the tie-breaker; Fig. 15 reports
	// the tie rate per quantization width. Lookups counts replacements
	// that consulted the matrix.
	Ties    uint64
	Lookups uint64
	// EpochStreams counts stream_nextrefs invocations and BytesStreamed
	// the Rereference Matrix bytes moved by the streaming engine; the
	// timing model charges them at peak DRAM bandwidth.
	EpochStreams  uint64
	BytesStreamed uint64
}

// NewPOPT builds a P-OPT policy over the given streams. All streams must
// share the same epoch and sub-epoch geometry (they do by construction,
// since both depend only on encoding, quantization width and vertex
// count), so a victim search decodes the current vertex once for all of
// them.
func NewPOPT(streams ...Stream) *POPT {
	if len(streams) == 0 {
		panic("core: P-OPT needs at least one irregular stream")
	}
	for _, s := range streams[1:] {
		if s.M.NumEpochs != streams[0].M.NumEpochs || s.M.EpochSize != streams[0].M.EpochSize ||
			s.M.SubEpochSize != streams[0].M.SubEpochSize {
			panic("core: P-OPT streams must share epoch geometry")
		}
	}
	return &POPT{streams: streams, tie: cache.NewDRRIP(1)}
}

// Name implements cache.Policy.
func (p *POPT) Name() string {
	switch p.streams[0].M.Kind {
	case InterOnly:
		return "P-OPT-inter-only"
	case SingleEpoch:
		return "P-OPT-SE"
	default:
		return "P-OPT"
	}
}

// Bind implements cache.Policy.
func (p *POPT) Bind(g cache.Geometry) {
	p.g = g
	p.tie.Bind(g)
}

// matrices returns the distinct Rereference Matrices behind the streams,
// deduplicated by their shared immutable Table (streams with identical
// line geometry share one table; see BuildPOPT): the streaming engine
// moves each encoded table's column once however many views exist.
func (p *POPT) matrices() []*Matrix {
	var ms []*Matrix
	for _, s := range p.streams {
		shared := false
		for _, m := range ms {
			if m.Table == s.M.Table {
				shared = true
				break
			}
		}
		if !shared {
			ms = append(ms, s.M)
		}
	}
	return ms
}

// UpdateIndex models the update_index instruction. Crossing into a new
// epoch triggers the streaming engine (stream_nextrefs): one column per
// distinct matrix is fetched into the reserved ways.
func (p *POPT) UpdateIndex(v graph.V) {
	p.cur = v
	if e := p.streams[0].M.EpochOf(v); e != p.epoch {
		p.epoch = e
		p.streamColumns()
	}
}

func (p *POPT) streamColumns() {
	for _, m := range p.matrices() {
		p.EpochStreams++
		p.BytesStreamed += uint64(m.ColumnBytes())
	}
}

// ResetEpoch restarts epoch tracking at the top of a traversal (a new
// kernel iteration re-streams the first column).
func (p *POPT) ResetEpoch() {
	p.epoch = 0
	p.streamColumns()
}

// ContextSwitch models Section V-F's context-switch support: the
// architectural registers travel with the process context, and on
// resumption the streaming engine refetches the resident columns of every
// distinct matrix into the reserved ways.
func (p *POPT) ContextSwitch() {
	for _, m := range p.matrices() {
		p.EpochStreams++
		p.BytesStreamed += uint64(m.ResidentBytes())
	}
}

// ReservedWays returns how many LLC ways must be reserved to pin the
// resident Rereference Matrix columns of every distinct matrix, for an
// LLC with the given set count (Section V-A: enough ways to hold
// 2*numLines*1B with the default encoding).
func (p *POPT) ReservedWays(sets int) int {
	total := 0
	for _, m := range p.matrices() {
		total += m.ResidentBytes()
	}
	wayBytes := sets * mem.LineSize
	return (total + wayBytes - 1) / wayBytes
}

// OnHit implements cache.Policy.
func (p *POPT) OnHit(set, way int, acc mem.Access) { p.tie.OnHit(set, way, acc) }

// OnFill implements cache.Policy.
func (p *POPT) OnFill(set, way int, acc mem.Access) { p.tie.OnFill(set, way, acc) }

// OnEvict implements cache.Policy.
func (p *POPT) OnEvict(set, way int) { p.tie.OnEvict(set, way) }

func (p *POPT) stream(addr uint64) *Stream {
	for i := range p.streams {
		if p.streams[i].Arr.Contains(addr) {
			return &p.streams[i]
		}
	}
	return nil
}

// Victim implements cache.Policy: the next-ref engine's candidate search
// (Section V-C). Streaming lines evict first; otherwise every way's
// quantized next reference comes from the Rereference Matrix (Algorithm 2)
// and the furthest wins, DRRIP settling ties. The current vertex's epoch
// and sub-epoch are decoded once, since every stream shares that geometry.
//
//popt:hot
func (p *POPT) Victim(set int, lines []cache.Line, acc mem.Access) int {
	t := p.streams[0].M.Table
	e := t.EpochOf(p.cur)
	sub := t.subEpochOf(p.cur, e)
	best, bestDist, tied := -1, -1, false
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		s := p.stream(lines[w].Addr)
		if s == nil {
			return w
		}
		d := s.M.nextRefAt(s.Arr.LineID(lines[w].Addr), e, sub)
		switch {
		case d > bestDist:
			best, bestDist, tied = w, d, false
		case d == bestDist:
			tied = true
			if !p.TieFirst && p.tie.RRPV(set, w) > p.tie.RRPV(set, best) {
				best = w
			}
		}
	}
	p.Lookups++
	if tied {
		p.Ties++
	}
	return best
}

// TieRate returns the fraction of matrix-guided replacements that ended in
// a tie (Section VII-D reports ~41%/12%/0% for 4/8/16-bit quantization).
func (p *POPT) TieRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Ties) / float64(p.Lookups)
}
