// Package core implements the paper's contribution: transpose-based
// optimal cache replacement (T-OPT) and its practical architecture P-OPT,
// built around the quantized Rereference Matrix (Sections III-V).
//
// Both policies plug into the internal/cache Policy interface and manage
// the irregularly accessed arrays of a graph kernel (srcData/dstData and
// frontiers). T-OPT consults the graph's transpose directly and is the
// idealized, zero-overhead upper bound; P-OPT consults the Rereference
// Matrix, pays for it with reserved LLC ways and epoch-boundary column
// streaming, and approaches T-OPT closely (Fig. 7, 10).
package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// Table is the immutable half of a Rereference Matrix: the epoch geometry
// plus the quantized next-reference entries — one row per cache line of
// the irregular array, one column per epoch of the outer traversal loop.
// A Table never changes after BuildTable returns, so one Table can back
// any number of concurrent simulations; per-run state lives in Matrix.
//
//popt:frozen
type Table struct {
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
	// entries is row-major: entries[line*NumEpochs+epoch].
	entries []uint16
	// epochDiv/subDiv are precomputed fastdiv reciprocals for EpochSize
	// and SubEpochSize: EpochOf and NextRef sit on P-OPT's victim-search
	// hot path (one lookup per candidate way per replacement) and the
	// epoch sizes are runtime values, so the hardware division they would
	// otherwise cost is strength-reduced once at build time. initDividers
	// must run after the geometry fields are final.
	epochDiv mem.Divider
	subDiv   mem.Divider
}

// MemBytes returns the resident size of the table's entry matrix, for
// footprint reports (-memstats); geometry fields and dividers are noise
// beside it.
func (t *Table) MemBytes() uint64 {
	return 2 * uint64(len(t.entries))
}

// initDividers precomputes the reciprocals of the epoch geometry; every
// constructor of a Table must call it once EpochSize and SubEpochSize are
// set (BuildTable does; so does the test helper that pins geometry by
// hand).
func (t *Table) initDividers() {
	t.epochDiv = mem.NewDivider(uint64(t.EpochSize))
	t.subDiv = mem.NewDivider(uint64(t.SubEpochSize))
}

// Matrix is one run's view of a Rereference Matrix: the shared immutable
// Table behind a per-run handle. Sharing the Table behind any number of
// NewMatrix views is free and safe, which is what lets a parallel sweep
// build each table once and hand every cell its own cheap view.
type Matrix struct {
	*Table
}

// NewMatrix returns a fresh per-run view of the table. Views are cheap:
// they share the encoded entries.
func (t *Table) NewMatrix() *Matrix { return &Matrix{Table: t} }

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
func (t *Table) MaxDist() int { return 1<<t.Kind.distBits(t.Bits) - 1 }

// BuildMatrix constructs the Rereference Matrix for an irregular array
// whose element for vertex v is referenced once per occurrence of v in the
// inner loop of a traversal, i.e. at every outer-loop vertex in refAdj's
// neighbor list of v. For a pull kernel refAdj is the graph's out-adjacency
// (the transpose of the traversed CSC); for push it is the in-adjacency.
//
// It is BuildTable plus a fresh per-run view; callers that want to share
// one build across runs keep the Table and call NewMatrix per run.
func BuildMatrix(refAdj *graph.Adj, numVertices, elemsPerLine int, kind Kind, bits uint) *Matrix {
	return BuildTable(refAdj, numVertices, elemsPerLine, kind, bits).NewMatrix()
}

// BuildTable constructs the immutable encoded table of a Rereference
// Matrix. numVertices is the outer loop trip count, elemsPerLine how many
// vertices share a line of the array (16 for 4 B data, 8 for 8 B, 512 for
// bit frontiers). This is the preprocessing step Table IV measures; rows
// are filled in parallel across GOMAXPROCS workers (each row's column
// scan touches only that row's slice of the transpose), and the resulting
// entries are bit-identical at every worker count.
func BuildTable(refAdj *graph.Adj, numVertices, elemsPerLine int, kind Kind, bits uint) *Table {
	if bits < 4 || bits > 16 {
		panic(fmt.Sprintf("core: unsupported quantization width %d", bits))
	}
	if kind == SingleEpoch && bits < 5 {
		panic("core: single-epoch encoding needs at least 5 bits")
	}
	t := &Table{Kind: kind, Bits: bits, ElemsPerLine: elemsPerLine}
	// The number of epochs is bounded by the representable ID range
	// (2^bits; the paper's 8-bit default gives 256 epochs with
	// EpochSize = ceil(numVertices/256)) and by the vertex count itself.
	quantEpochs := 1 << bits
	if quantEpochs > numVertices {
		quantEpochs = numVertices
	}
	if quantEpochs < 1 {
		quantEpochs = 1
	}
	t.EpochSize = (numVertices + quantEpochs - 1) / quantEpochs
	t.NumEpochs = (numVertices + t.EpochSize - 1) / t.EpochSize
	t.SubEpochs = 1<<kind.distBits(bits) - 1
	if t.SubEpochs < 1 {
		t.SubEpochs = 1
	}
	t.SubEpochSize = (t.EpochSize + t.SubEpochs - 1) / t.SubEpochs
	t.NumLines = (refAdj.N() + elemsPerLine - 1) / elemsPerLine
	t.entries = make([]uint16, t.NumLines*t.NumEpochs)
	t.initDividers()
	fillEntries(t, refAdj, numVertices)
	return t
}

// minLinesPerWorker bounds the parallel-fill grain: below this many rows
// per worker the goroutine fan-out costs more than the column scans.
const minLinesPerWorker = 256

// fillEntries populates a Table whose geometry fields are already set,
// partitioning rows across workers. Every row is computed from only its
// own vertices' transpose lists and written to its own entries slice, so
// the result is independent of the partitioning.
func fillEntries(t *Table, refAdj *graph.Adj, numVertices int) {
	workers := runtime.GOMAXPROCS(0)
	if max := t.NumLines / minLinesPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		t.fillLines(refAdj, numVertices, 0, t.NumLines,
			make([]bool, t.NumEpochs), make([]uint16, t.NumEpochs))
		return
	}
	var wg sync.WaitGroup
	chunk := (t.NumLines + workers - 1) / workers
	for lo := 0; lo < t.NumLines; lo += chunk {
		hi := lo + chunk
		if hi > t.NumLines {
			hi = t.NumLines
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			t.fillLines(refAdj, numVertices, lo, hi,
				make([]bool, t.NumEpochs), make([]uint16, t.NumEpochs))
		}(lo, hi)
	}
	wg.Wait()
}

// fillLines is the row worker of the parallel matrix build: it encodes the
// rows [lo, hi) into t.entries. hasRef and lastSub are caller-provided
// per-worker scratch of length NumEpochs (allocated outside so this inner
// loop stays allocation-free).
//
//popt:hot
func (t *Table) fillLines(refAdj *graph.Adj, numVertices, lo, hi int, hasRef []bool, lastSub []uint16) {
	kind, bits, elemsPerLine := t.Kind, t.Bits, t.ElemsPerLine
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
	for line := lo; line < hi; line++ {
		for e := range hasRef {
			hasRef[e] = false
			lastSub[e] = 0
		}
		vlo := line * elemsPerLine
		vhi := vlo + elemsPerLine
		if vhi > n {
			vhi = n
		}
		// A line is next referenced at the earliest outer-loop position
		// among its vertices; for epoch bookkeeping we need, per epoch,
		// whether any reference lands there and the sub-epoch of the LAST
		// reference in that epoch.
		for v := vlo; v < vhi; v++ {
			ds, _ := it.Next()
			for _, d := range ds {
				if int(d) >= numVertices {
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
		row := t.entries[line*t.NumEpochs : (line+1)*t.NumEpochs]
		for e := t.NumEpochs - 1; e >= 0; e-- {
			dist := int(maxDist)
			if hasRef[e] {
				dist = 0
			} else if next >= 0 {
				if d := next - e; d < dist {
					dist = d
				}
			}
			switch kind {
			case InterOnly:
				row[e] = uint16(dist)
			case InterIntra:
				if hasRef[e] {
					row[e] = lastSub[e] // MSB 0: intra info
				} else {
					row[e] = msbMask | uint16(dist)
				}
			case SingleEpoch:
				if hasRef[e] {
					row[e] = lastSub[e]
					if e+1 < t.NumEpochs && hasRef[e+1] {
						row[e] |= nextBitMask
					}
				} else {
					row[e] = msbMask | uint16(dist)
				}
			}
			if hasRef[e] {
				next = e
			}
		}
	}
}

// Entry exposes the raw encoded entry for tests and diagnostics.
func (t *Table) Entry(line, epoch int) uint16 { return t.entries[line*t.NumEpochs+epoch] }

// Checksum returns an FNV-1a hash of the table's geometry and entries.
// Tests use it to assert that tables shared across concurrent sweep cells
// are never written after construction.
func (t *Table) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range []uint64{
		uint64(t.Kind), uint64(t.Bits), uint64(t.NumLines), uint64(t.ElemsPerLine),
		uint64(t.NumEpochs), uint64(t.EpochSize), uint64(t.SubEpochs), uint64(t.SubEpochSize),
	} {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, e := range t.entries {
		binary.LittleEndian.PutUint16(buf[:2], e)
		h.Write(buf[:2])
	}
	return h.Sum64()
}

// EpochOf maps an outer-loop vertex to its epoch. The division by the
// runtime epoch size runs on the precomputed fastdiv reciprocal.
//
//popt:hot
func (t *Table) EpochOf(v graph.V) int {
	e := int(t.epochDiv.Div(uint64(v)))
	if e >= t.NumEpochs {
		e = t.NumEpochs - 1
	}
	return e
}

// subEpochOf maps an outer-loop vertex in epoch e to its sub-epoch, the
// intra-epoch position Algorithm 2 compares against an entry's final
// access.
//
//popt:hot
func (t *Table) subEpochOf(v graph.V, e int) int {
	return int(t.subDiv.Div(uint64(int(v) - e*t.EpochSize)))
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
	curr := m.entries[line*m.NumEpochs+e]
	msbMask := uint16(1) << (m.Bits - 1)
	lowMask := msbMask - 1

	if m.Kind == InterOnly {
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
	if m.Kind == SingleEpoch {
		lastSub = int(curr & (1<<(m.Bits-2) - 1))
	} else {
		lastSub = int(curr & lowMask)
	}
	if sub <= lastSub {
		return 0
	}
	// Past the final access: consult next-epoch information.
	if m.Kind == SingleEpoch {
		// Only one bit of lookahead survives the footprint reduction.
		if curr&(1<<(m.Bits-2)) != 0 {
			return 1
		}
		// Beyond the next epoch the distance is unknown; report the
		// coarsest non-adjacent guess. This is P-OPT-SE's quality loss.
		return 2
	}
	if e+1 >= m.NumEpochs {
		return m.MaxDist() + 1
	}
	next := m.entries[line*m.NumEpochs+e+1]
	if next&msbMask != 0 {
		return 1 + int(next&lowMask)
	}
	return 1
}

// ColumnBytes returns the storage of one epoch column, the unit streamed
// into the LLC at epoch boundaries.
func (t *Table) ColumnBytes() int { return (t.NumLines*int(t.Bits) + 7) / 8 }

// ResidentColumns returns how many columns P-OPT pins in the LLC for this
// encoding: current+next normally, current only for single-epoch.
func (t *Table) ResidentColumns() int {
	if t.Kind == SingleEpoch {
		return 1
	}
	return 2
}

// ResidentBytes returns the LLC footprint of the pinned columns.
func (t *Table) ResidentBytes() int { return t.ResidentColumns() * t.ColumnBytes() }

// TotalBytes returns the full Rereference Matrix size in memory.
func (t *Table) TotalBytes() int { return (len(t.entries)*int(t.Bits) + 7) / 8 }
