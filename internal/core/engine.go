package core

import (
	"popt/internal/graph"
	"popt/internal/mem"
)

// This file models the next-ref engine of Section V and the convenience
// wiring from kernel arrays to policies.

// BuildPOPT builds a Rereference Matrix per irregular array and wires them
// into a P-OPT policy. refAdj is the transpose of the traversal direction
// (out-adjacency for pull kernels, in-adjacency for push), numVertices the
// outer-loop trip count. Arrays with the same elements-per-line share one
// matrix, the optimization Section V-F allows ("if the irregular data
// structures span different number of cache lines, otherwise a single
// Rereference Matrix can be shared") — it halves both the build cost and
// the pinned-column footprint when, e.g., two 4 B per-vertex arrays are
// tracked.
func BuildPOPT(refAdj *graph.Adj, numVertices int, kind Kind, bits uint, arrs ...*mem.Array) *POPT {
	streams := make([]Stream, len(arrs))
	byEPL := make(map[int]*Matrix)
	for i, a := range arrs {
		epl := a.ElemsPerLine()
		m := byEPL[epl]
		if m == nil {
			m = BuildMatrix(refAdj, numVertices, epl, kind, bits)
			byEPL[epl] = m
		}
		streams[i] = Stream{Arr: a, M: m}
	}
	return NewPOPT(streams...)
}

// BuildTOPT wires irregular arrays into a T-OPT policy sharing refAdj.
func BuildTOPT(refAdj *graph.Adj, arrs ...*mem.Array) *TOPT {
	streams := make([]OracleStream, len(arrs))
	for i, a := range arrs {
		streams[i] = OracleStream{Arr: a, Ref: refAdj}
	}
	return NewTOPT(streams...)
}

// VertexIndexed is implemented by policies that consume the update_index
// instruction (P-OPT and T-OPT); kernel runners feed every policy that
// implements it.
type VertexIndexed interface {
	UpdateIndex(v graph.V)
}

// Matrix is one run's next-reference engine. It answers Algorithm 2 for a
// (line, current vertex) pair exactly as the line's Rereference Matrix
// entries would decode (Table.NextRef), but from the line's sorted
// reference list in the merged transpose T-OPT also uses, so no run
// materializes the NumLines × NumEpochs table; what the hardware pays for
// the table is analytic in the geometry. The per-line memo is per-run
// state; the LineRefs behind it is shared and never written.
type Matrix struct {
	geometry
	lr   *LineRefs
	memo []lineMemo
}

// lineMemo is one line's Algorithm 2 answer for one epoch: 0 for
// sub-epochs below until, past from there on. epoch is that epoch plus
// one (0: never asked). pos, relative to the line's segment in the
// merged transpose, is where a later epoch's search resumes: every
// reference before it precedes the next epoch. A segment is far shorter
// than 2^32, so the entry fits in 12 bytes.
type lineMemo struct {
	pos   uint32
	epoch uint32
	until uint16
	past  uint16
}

// BuildMatrix merges refAdj's reference lists into lines of elemsPerLine
// vertices (BuildLineRefs) and returns a fresh engine over them; see
// BuildTable for the arguments.
func BuildMatrix(refAdj *graph.Adj, numVertices, elemsPerLine int, kind Kind, bits uint) *Matrix {
	return BuildLineRefs(refAdj, elemsPerLine).NewMatrix(numVertices, kind, bits)
}

// NewMatrix returns a fresh engine over the merged transpose for an outer
// loop of numVertices vertices at the given encoding and width. Engines
// share lr read-only; each keeps its own memo.
func (lr *LineRefs) NewMatrix(numVertices int, kind Kind, bits uint) *Matrix {
	return newMatrix(newGeometry(lr.numLines(), numVertices, lr.epl, kind, bits, 0), lr)
}

func newMatrix(g geometry, lr *LineRefs) *Matrix {
	return &Matrix{geometry: g, lr: lr, memo: make([]lineMemo, g.NumLines)}
}

// NextRef implements Algorithm 2: given a cache line of the array and the
// outer-loop vertex currently being processed, return the distance (in
// epochs) to the line's next reference. 0 means "again within this epoch";
// MaxDist()+1 saturates "no known future use".
func (m *Matrix) NextRef(line int, cur graph.V) int {
	e := m.EpochOf(cur)
	return m.nextRefAt(line, e, m.subEpochOf(cur, e))
}

// nextRefAt is Algorithm 2 with the current vertex already decoded into
// its epoch e and sub-epoch sub, so a victim search decodes it once rather
// than once per candidate way.
//
//popt:hot
func (m *Matrix) nextRefAt(line, e, sub int) int {
	me := &m.memo[line]
	if me.epoch != uint32(e)+1 {
		m.refresh(line, e)
	}
	if sub < int(me.until) {
		return 0
	}
	return int(me.past)
}

// refresh recomputes line's memo for epoch e from what the table's
// entries for e and e+1 encode: a, the line's first reference at or after
// epoch e, and, if a lies in e and the encoding keeps intra-epoch
// information, b, the first at or after epoch e+1, whose predecessor is
// the last in e. A later epoch than the memo's resumes the search at its
// pos; an earlier one (an iteration restart or a tile switch) or the
// first query starts at the segment head.
//
//popt:hot
func (m *Matrix) refresh(line, e int) {
	me := &m.memo[line]
	head := m.lr.oa[line]
	from := head
	if uint32(e) >= me.epoch {
		from += uint64(me.pos)
	}
	lo := e * m.EpochSize
	pos, a := m.lr.seek(line, from, graph.V(lo))
	until, past := 0, m.epochsTo(a, e)
	if past == 0 && m.Kind != InterOnly {
		var b graph.V
		pos, b = m.lr.seek(line, pos, graph.V(min(lo+m.EpochSize, m.numVertices)))
		until = min(m.subEpochOf(m.lr.refs[pos-1], e), m.SubEpochs-1) + 1
		switch {
		case m.Kind == SingleEpoch:
			// One bit of lookahead: referenced in e+1 or not.
			past = 2
			if m.epochsTo(b, e+1) == 0 {
				past = 1
			}
		case e+1 >= m.NumEpochs:
			past = m.MaxDist() + 1
		default:
			past = 1 + m.epochsTo(b, e+1)
		}
	}
	*me = lineMemo{pos: uint32(pos - head), epoch: uint32(e) + 1, until: uint16(until), past: uint16(past)}
}

// epochsTo returns how many epochs after epoch e reference r falls,
// saturated at MaxDist, the distance a table entry stores. r is at or
// after e's first vertex; a reference the outer loop never reaches
// (noRef included) saturates.
//
//popt:hot
func (m *Matrix) epochsTo(r graph.V, e int) int {
	if int(r) >= m.numVertices {
		return m.MaxDist()
	}
	return min(int(m.epochDiv.Div(uint64(r)))-e, m.MaxDist())
}
