package core

import (
	"slices"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// Stream pairs an irregularly accessed array with its Rereference Matrix
// engine.
type Stream struct {
	Arr *mem.Array
	M   *Matrix
}

// POPT is the practical transpose-based policy (Sections IV-V). It looks
// up quantized next references in Rereference Matrix columns pinned in
// reserved LLC ways, pays the costs the paper models — reduced effective
// LLC capacity and an epoch-boundary column stream — and breaks
// next-reference ties with DRRIP. The simulator computes what those
// entries decode to from the merged transpose (Matrix) instead of storing
// the table.
type POPT struct {
	g cache.Geometry
	// streams holds each stream's registers and matrix, in stream order,
	// and matrices the distinct Rereference Matrices behind them (the
	// first stream's first); both are fixed at construction.
	streams  []poptStream
	matrices []*Matrix
	cur      graph.V
	epoch    int
	tie      *cache.DRRIP
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
	p := &POPT{streams: make([]poptStream, len(streams)), tie: cache.NewDRRIP(1)}
	for i, s := range streams {
		p.streams[i] = poptStream{irregRegs: newIrregRegs(s.Arr), m: s.M}
		// Streams with identical line geometry share one Matrix (see
		// BuildPOPT), whose columns the streaming engine moves once.
		if !slices.Contains(p.matrices, s.M) {
			p.matrices = append(p.matrices, s.M)
		}
	}
	return p
}

// irregRegs is an irregular array's irreg_base/irreg_bound register pair
// (Section V-B), copied out of the array when a policy is built so a
// victim search reads no pointer per candidate.
type irregRegs struct{ base, size uint64 }

func newIrregRegs(a *mem.Array) irregRegs { return irregRegs{a.Base, a.SizeBytes()} }

// contains reports whether addr lies in the array: one unsigned compare,
// since an address below base wraps around to a huge offset.
func (r *irregRegs) contains(addr uint64) bool { return addr-r.base < r.size }

// lineID is the next-ref engine's cachelineID = (addr - irreg_base) >> 6.
func (r *irregRegs) lineID(addr uint64) int { return int((addr - r.base) >> mem.LineShift) }

// poptStream is one stream of a POPT: its registers and matrix.
type poptStream struct {
	irregRegs
	m *Matrix
}

// Name implements cache.Policy.
func (p *POPT) Name() string {
	switch p.matrices[0].Kind {
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

// UpdateIndex models the update_index instruction. Crossing into a new
// epoch triggers the streaming engine (stream_nextrefs): one column per
// distinct matrix is fetched into the reserved ways.
func (p *POPT) UpdateIndex(v graph.V) {
	p.cur = v
	if e := p.matrices[0].EpochOf(v); e != p.epoch {
		p.epoch = e
		p.streamColumns()
	}
}

func (p *POPT) streamColumns() {
	for _, m := range p.matrices {
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

// ReservedWays returns how many LLC ways must be reserved to pin the
// resident Rereference Matrix columns of every distinct matrix, for an
// LLC with the given set count (Section V-A: enough ways to hold
// 2*numLines*1B with the default encoding).
func (p *POPT) ReservedWays(sets int) int {
	total := 0
	for _, m := range p.matrices {
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

// stream returns the irregular stream holding addr, or nil for streaming
// data.
//
//popt:hot
func (p *POPT) stream(addr uint64) *poptStream {
	for i := range p.streams {
		if p.streams[i].contains(addr) {
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
func (p *POPT) Victim(set int, tags []uint64, acc mem.Access) int {
	m := p.matrices[0]
	e := m.EpochOf(p.cur)
	sub := m.subEpochOf(p.cur, e)
	best, bestDist, tied := -1, -1, false
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		s := p.stream(tags[w])
		if s == nil {
			return w
		}
		d := s.m.nextRefAt(s.lineID(tags[w]), e, sub)
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
