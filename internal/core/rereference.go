// Package core implements the paper's contribution: transpose-based
// optimal cache replacement (T-OPT) and its practical architecture P-OPT,
// built around the quantized Rereference Matrix (Sections III-V).
//
// Both policies plug into the internal/cache Policy interface and manage
// the irregularly accessed arrays of a graph kernel (srcData/dstData and
// frontiers). T-OPT consults the graph's transpose directly and is the
// idealized, zero-overhead upper bound; P-OPT consults the Rereference
// Matrix, pays for it with reserved LLC ways and epoch-boundary column
// streaming, and approaches T-OPT closely (Fig. 7, 10). Both answer from
// one merged transpose (LineRefs): P-OPT's engine (Matrix) quantizes it
// to exactly what the Rereference Matrix entries (Table) decode to.
package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"popt/internal/graph"
	"popt/internal/mem"
)

// Kind selects the Rereference Matrix entry encoding.
type Kind int

const (
	// InterOnly entries store only the distance (in epochs) to the epoch
	// of the line's next reference (Fig. 5). Cheap but lossy: after the
	// final access within an epoch the entry still reads 0.
	InterOnly Kind = iota
	// InterIntra is the paper's default (Fig. 6): the MSB selects between
	// inter-epoch distance and the intra-epoch sub-epoch of the line's
	// final access, eliminating most quantization loss at the cost of one
	// bit of distance range.
	InterIntra
	// SingleEpoch is P-OPT-SE (Section VII-B): only the current epoch's
	// column is kept resident; a second reserved bit records whether the
	// line is referenced in the next epoch. Halves the metadata footprint
	// and the tracked distance range again.
	SingleEpoch
)

func (k Kind) String() string {
	switch k {
	case InterOnly:
		return "inter-only"
	case InterIntra:
		return "inter+intra"
	default:
		return "single-epoch"
	}
}

// geometry is a Rereference Matrix's epoch geometry: how the outer loop's
// vertex range is cut into epochs and sub-epochs, and how many lines of
// the irregular array the matrix has rows for. Table (the encoded entries)
// and Matrix (the engine answering Algorithm 2 from the transpose) both
// embed it, and newGeometry alone computes it, so the two always agree.
type geometry struct {
	Kind Kind
	// Bits is the entry width (4, 8 or 16; the paper's default is 8).
	Bits uint
	// NumLines is the number of cache lines spanned by the array.
	NumLines int
	// ElemsPerLine is how many vertices share one cache line of the array.
	ElemsPerLine int
	// NumEpochs, EpochSize: the outer loop's vertex range is cut into
	// NumEpochs epochs of EpochSize vertices (last one ragged).
	NumEpochs int
	EpochSize int
	// SubEpochs, SubEpochSize: within an epoch, intra encodings quantize
	// the final access into SubEpochs partitions.
	SubEpochs    int
	SubEpochSize int
	// numVertices is the outer loop trip count: references at or beyond it
	// are never reached and count for nothing.
	numVertices int
	// maxDist is MaxDist's answer, the largest distance the entry's
	// distance field holds.
	maxDist int
	// epochDiv/subDiv are precomputed fastdiv reciprocals for EpochSize
	// and SubEpochSize: EpochOf and subEpochOf sit on P-OPT's victim-search
	// hot path and the epoch sizes are runtime values, so the hardware
	// division they would otherwise cost is strength-reduced once.
	epochDiv mem.Divider
	subDiv   mem.Divider
}

// newGeometry computes the epoch geometry of a Rereference Matrix with
// numLines rows over an outer loop of numVertices vertices. epochSize 0
// derives the epoch size from the quantization width, as the paper does;
// tests pin it to reproduce the paper's hand-sized figures.
func newGeometry(numLines, numVertices, elemsPerLine int, kind Kind, bits uint, epochSize int) geometry {
	if bits < 4 || bits > 16 {
		panic(fmt.Sprintf("core: unsupported quantization width %d", bits))
	}
	if kind == SingleEpoch && bits < 5 {
		panic("core: single-epoch encoding needs at least 5 bits")
	}
	if epochSize == 0 {
		// The number of epochs is bounded by the representable ID range
		// (2^bits; the paper's 8-bit default gives 256 epochs with
		// EpochSize = ceil(numVertices/256)) and by the vertex count itself.
		quantEpochs := max(min(1<<bits, numVertices), 1)
		epochSize = (numVertices + quantEpochs - 1) / quantEpochs
	}
	g := geometry{Kind: kind, Bits: bits, NumLines: numLines, ElemsPerLine: elemsPerLine, EpochSize: epochSize, numVertices: numVertices}
	g.NumEpochs = (numVertices + epochSize - 1) / epochSize
	// An intra encoding's sub-epoch field is as wide as its distance field.
	g.maxDist = 1<<kind.distBits(bits) - 1
	g.SubEpochs = g.maxDist
	g.SubEpochSize = (epochSize + g.SubEpochs - 1) / g.SubEpochs
	g.epochDiv = mem.NewDivider(uint64(g.EpochSize))
	g.subDiv = mem.NewDivider(uint64(g.SubEpochSize))
	return g
}

// Table is the Rereference Matrix the hardware stores: the epoch geometry
// plus the quantized next-reference entries, one row per cache line of
// the irregular array and one column per epoch of the outer traversal
// loop. Simulations do not read it — Matrix answers Algorithm 2 from the
// merged transpose, and the costs of the table (reserved ways, column
// streaming) are analytic in the geometry. The table is what Table IV
// times and what the tests decode as the reference for Matrix. It never
// changes after BuildTable returns.
//
//popt:frozen
type Table struct {
	geometry
	// adj is the transpose the table was built from; NewMatrix merges it.
	adj *graph.Adj
	// entries is epoch-major, the order the hardware streams it: the
	// entry of line l in epoch e is the (e*NumLines+l)-th, so each column
	// is one contiguous run. An entry takes one byte up to 8 bits and two
	// (little-endian) above; Entry reads it.
	entries []byte
}

// MemBytes returns the host bytes of the table's entry matrix, for
// footprint reports (-memstats); geometry fields and dividers are noise
// beside it.
func (t *Table) MemBytes() uint64 { return uint64(len(t.entries)) }

// entryBytes is the host width of one entry: a byte up to 8 bits, two
// above (fig15's 16-bit tables).
func (t *Table) entryBytes() int {
	if t.Bits > 8 {
		return 2
	}
	return 1
}

// NewMatrix returns a fresh engine over the table's geometry that answers
// from the merged transpose of the adjacency the table was built from, so
// it gives exactly the table's answers. It builds that merged transpose;
// callers that already hold one use LineRefs.NewMatrix instead.
func (t *Table) NewMatrix() *Matrix {
	return newMatrix(t.geometry, BuildLineRefs(t.adj, t.ElemsPerLine))
}

// distBits returns the width of the distance field for the encoding.
func (k Kind) distBits(bits uint) uint {
	switch k {
	case InterOnly:
		return bits
	case InterIntra:
		return bits - 1
	default: // SingleEpoch reserves MSB (intra flag) and next-epoch bit
		return bits - 2
	}
}

// MaxDist returns the saturating/sentinel distance value: entries at
// MaxDist mean "next reference at least this many epochs away (possibly
// never)".
func (g *geometry) MaxDist() int { return g.maxDist }

// BuildTable constructs the encoded Rereference Matrix for an irregular
// array whose element for vertex v is referenced once per occurrence of v
// in the inner loop of a traversal, i.e. at every outer-loop vertex in
// refAdj's neighbor list of v. For a pull kernel refAdj is the graph's
// out-adjacency (the transpose of the traversed CSC); for push it is the
// in-adjacency. numVertices is the outer loop trip count, elemsPerLine
// how many vertices share a line of the array (16 for 4 B data, 8 for
// 8 B, 512 for bit frontiers). This is the preprocessing step Table IV
// measures; rows are filled in parallel across GOMAXPROCS workers (each
// row's column scan touches only that row's slice of the transpose), and
// the resulting entries are bit-identical at every worker count.
func BuildTable(refAdj *graph.Adj, numVertices, elemsPerLine int, kind Kind, bits uint) *Table {
	numLines := (refAdj.N() + elemsPerLine - 1) / elemsPerLine
	return buildTable(refAdj, newGeometry(numLines, numVertices, elemsPerLine, kind, bits, 0))
}

// buildTable encodes the table of refAdj at geometry g.
func buildTable(refAdj *graph.Adj, g geometry) *Table {
	t := &Table{geometry: g, adj: refAdj}
	fillEntries(t, refAdj)
	return t
}

// minLinesPerWorker bounds the parallel-fill grain: below this many rows
// per worker the goroutine fan-out costs more than the column scans.
const minLinesPerWorker = 256

// blockBytes bounds the scratch block in which a worker of the table
// build encodes rows before writing them out. A block holds as many rows
// as fit, so each column receives one contiguous run per block rather
// than one entry per row at a stride of NumLines: 64 entries, one host
// cache line, for the paper's 8-bit, 256-epoch tables. Bounding the bytes
// rather than the rows keeps the scratch small for 16-bit tables, whose
// rows hold up to 2^16 epochs.
const blockBytes = 16 << 10

// fillEntries allocates and populates the entries of a Table whose
// geometry fields are already set, partitioning rows across workers.
// Every row is computed from only its own vertices' transpose lists and
// written only to its own entries, so the result is independent of the
// partitioning.
func fillEntries(t *Table, refAdj *graph.Adj) {
	w := t.entryBytes()
	t.entries = make([]byte, t.NumLines*t.NumEpochs*w)
	blockRows := max(blockBytes/(t.NumEpochs*w), 1)
	workers := max(min(runtime.GOMAXPROCS(0), t.NumLines/minLinesPerWorker), 1)
	chunk := (t.NumLines + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < t.NumLines; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			t.fillLines(refAdj, lo, hi, make([]bool, t.NumEpochs), make([]uint16, t.NumEpochs),
				make([]byte, min(hi-lo, blockRows)*t.NumEpochs*w))
		}(lo, min(lo+chunk, t.NumLines))
	}
	wg.Wait()
}

// fillLines is one worker of the parallel matrix build: it encodes the
// rows [lo, hi) into t.entries. Each block of rows is encoded into block,
// epoch-major at the store's entry width (row b+j of epoch e at index
// e*stride+j, stride being the rows block holds), and then copied out one
// column run at a time. hasRef and lastSub (length NumEpochs) and block
// are caller-provided per-worker scratch, allocated outside so this inner
// loop stays allocation-free.
//
//popt:hot
func (t *Table) fillLines(refAdj *graph.Adj, lo, hi int, hasRef []bool, lastSub []uint16, block []byte) {
	kind, bits, elemsPerLine := t.Kind, t.Bits, t.ElemsPerLine
	w := t.entryBytes()
	maxDist := uint16(t.MaxDist())
	msbMask := uint16(1) << (bits - 1)
	nextBitMask := uint16(0)
	if kind == SingleEpoch {
		nextBitMask = 1 << (bits - 2)
	}
	n := refAdj.N()
	vstart := lo * elemsPerLine
	if vstart > n {
		vstart = n
	}
	it := refAdj.IterFrom(graph.V(vstart))
	stride := len(block) / (t.NumEpochs * w)
	for b := lo; b < hi; b += stride {
		rows := min(hi-b, stride)
		for j := 0; j < rows; j++ {
			for e := range hasRef {
				hasRef[e] = false
				lastSub[e] = 0
			}
			vlo := (b + j) * elemsPerLine
			vhi := vlo + elemsPerLine
			if vhi > n {
				vhi = n
			}
			// A line is next referenced at the earliest outer-loop position
			// among its vertices; for epoch bookkeeping we need, per epoch,
			// whether any reference lands there and the sub-epoch of the
			// LAST reference in that epoch.
			for v := vlo; v < vhi; v++ {
				ds, _ := it.Next()
				for _, d := range ds {
					if int(d) >= t.numVertices {
						continue // outer loop never reaches it
					}
					e := int(t.epochDiv.Div(uint64(d)))
					sub := int(t.subDiv.Div(uint64(int(d) - e*t.EpochSize)))
					if sub >= t.SubEpochs {
						sub = t.SubEpochs - 1
					}
					if !hasRef[e] || uint16(sub) > lastSub[e] {
						lastSub[e] = uint16(sub)
					}
					hasRef[e] = true
				}
			}
			// Walk epochs backward, tracking the next referencing epoch.
			next := -1 // -1 = no further reference
			for e := t.NumEpochs - 1; e >= 0; e-- {
				dist := int(maxDist)
				if hasRef[e] {
					dist = 0
				} else if next >= 0 {
					if d := next - e; d < dist {
						dist = d
					}
				}
				var x uint16
				switch kind {
				case InterOnly:
					x = uint16(dist)
				case InterIntra:
					if hasRef[e] {
						x = lastSub[e] // MSB 0: intra info
					} else {
						x = msbMask | uint16(dist)
					}
				case SingleEpoch:
					if hasRef[e] {
						x = lastSub[e]
						if e+1 < t.NumEpochs && hasRef[e+1] {
							x |= nextBitMask
						}
					} else {
						x = msbMask | uint16(dist)
					}
				}
				if i := e*stride + j; w == 2 {
					binary.LittleEndian.PutUint16(block[2*i:], x)
				} else {
					block[i] = byte(x)
				}
				if hasRef[e] {
					next = e
				}
			}
		}
		for e := 0; e < t.NumEpochs; e++ {
			copy(t.entries[(e*t.NumLines+b)*w:], block[e*stride*w:(e*stride+rows)*w])
		}
	}
}

// Entry returns the encoded entry of line in epoch, for tests and
// diagnostics.
func (t *Table) Entry(line, epoch int) uint16 {
	i := epoch*t.NumLines + line
	if t.Bits > 8 {
		return binary.LittleEndian.Uint16(t.entries[2*i:])
	}
	return uint16(t.entries[i])
}

// EpochOf maps an outer-loop vertex to its epoch. The division by the
// runtime epoch size runs on the precomputed fastdiv reciprocal.
//
//popt:hot
func (g *geometry) EpochOf(v graph.V) int {
	e := int(g.epochDiv.Div(uint64(v)))
	if e >= g.NumEpochs {
		e = g.NumEpochs - 1
	}
	return e
}

// subEpochOf maps an outer-loop vertex in epoch e to its sub-epoch, the
// intra-epoch position Algorithm 2 compares against the sub-epoch of the
// line's final access.
//
//popt:hot
func (g *geometry) subEpochOf(v graph.V, e int) int {
	return int(g.subDiv.Div(uint64(int(v) - e*g.EpochSize)))
}

// NextRef decodes the table's entries by Algorithm 2: given a cache line
// of the array and the outer-loop vertex currently being processed, it
// returns the distance (in epochs) to the line's next reference. 0 means
// "again within this epoch"; MaxDist()+1 saturates "no known future use".
// This is how the hardware answers, and the reference the tests hold
// Matrix.NextRef to; simulations never call it.
func (t *Table) NextRef(line int, cur graph.V) int {
	e := t.EpochOf(cur)
	curr := t.Entry(line, e)
	msbMask := uint16(1) << (t.Bits - 1)
	lowMask := msbMask - 1

	if t.Kind == InterOnly {
		// No intra-epoch information: the entry is the distance, reading 0
		// for the whole epoch even after the line's final access.
		return int(curr)
	}

	if curr&msbMask != 0 {
		// Not referenced this epoch; low bits are the distance.
		return int(curr & lowMask)
	}
	// Referenced this epoch: have we passed its final access?
	var lastSub int
	if t.Kind == SingleEpoch {
		lastSub = int(curr & (1<<(t.Bits-2) - 1))
	} else {
		lastSub = int(curr & lowMask)
	}
	if t.subEpochOf(cur, e) <= lastSub {
		return 0
	}
	// Past the final access: consult next-epoch information.
	if t.Kind == SingleEpoch {
		// Only one bit of lookahead survives the footprint reduction.
		if curr&(1<<(t.Bits-2)) != 0 {
			return 1
		}
		// Beyond the next epoch the distance is unknown; report the
		// coarsest non-adjacent guess. This is P-OPT-SE's quality loss.
		return 2
	}
	if e+1 >= t.NumEpochs {
		return t.MaxDist() + 1
	}
	next := t.Entry(line, e+1)
	if next&msbMask != 0 {
		return 1 + int(next&lowMask)
	}
	return 1
}

// ColumnBytes returns the storage of one epoch column, the unit streamed
// into the LLC at epoch boundaries.
func (g *geometry) ColumnBytes() int { return (g.NumLines*int(g.Bits) + 7) / 8 }

// ResidentColumns returns how many columns P-OPT pins in the LLC for this
// encoding: current+next normally, current only for single-epoch.
func (g *geometry) ResidentColumns() int {
	if g.Kind == SingleEpoch {
		return 1
	}
	return 2
}

// ResidentBytes returns the LLC footprint of the pinned columns.
func (g *geometry) ResidentBytes() int { return g.ResidentColumns() * g.ColumnBytes() }

// TotalBytes returns the full Rereference Matrix size in memory at the
// encoded width (a host Table may store it wider; see MemBytes).
func (g *geometry) TotalBytes() int { return (g.NumLines*g.NumEpochs*int(g.Bits) + 7) / 8 }
