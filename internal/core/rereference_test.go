package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"popt/internal/graph"
	"popt/internal/mem"
)

// fig1Graph is the 5-vertex example from Figures 1-5 of the paper.
func fig1Graph() *graph.Graph {
	edges := []graph.Edge{
		{Src: 0, Dst: 2},
		{Src: 1, Dst: 0}, {Src: 1, Dst: 4},
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 1}, {Src: 3, Dst: 4},
		{Src: 4, Dst: 0}, {Src: 4, Dst: 2},
	}
	return graph.FromEdges("fig1", 5, edges)
}

// buildFig5Table reproduces Figure 5's setting: one srcData element per
// cache line (elemsPerLine=1), three epochs of two vertices each. We force
// that epoch geometry by hand.
func buildFig5Table(kind Kind) *Table {
	g := fig1Graph()
	// 4-bit quantization on 5 vertices yields epochSize 1; Figure 5 uses
	// epochSize 2 (3 epochs), so pin that geometry explicitly.
	return rebuildWithEpochSize(&g.Out, 5, 1, kind, 4, 2)
}

// rebuildWithEpochSize is a test helper that builds a table with a pinned
// epoch size (the public builder derives epoch size from the quantization
// width).
func rebuildWithEpochSize(ref *graph.Adj, numVertices, epl int, kind Kind, bits uint, epochSize int) *Table {
	return buildTable(ref, newGeometry((ref.N()+epl-1)/epl, numVertices, epl, kind, bits, epochSize))
}

// nextRef returns m's Algorithm 2 answer for (line, cur) and fails the
// test unless the table's own decode gives the same.
func nextRef(t *testing.T, tab *Table, m *Matrix, line int, cur graph.V) int {
	t.Helper()
	got := m.NextRef(line, cur)
	if want := tab.NextRef(line, cur); got != want {
		t.Fatalf("line %d cur %d: Matrix.NextRef = %d, the table decodes %d", line, cur, got, want)
	}
	return got
}

// newTestSpace shortens mem.NewSpace in tests.
func newTestSpace() *mem.Space { return mem.NewSpace() }

func TestFig5InterOnlyMatrix(t *testing.T) {
	m := buildFig5Table(InterOnly)
	// Figure 5's Rereference Matrix (M = sentinel = MaxDist):
	//        E0 E1 E2
	//   C0 [  1  0  M ]   (S0 referenced only at D2)
	//   C1 [  0  2  0 ]   (S1 at D0 and D4)
	//   C2 [  0  0  0 ]   (S2 at D0, D1, D3)
	//   C3 [  0  1  0 ]   (S3 at D1 and D4)
	//   C4 [  1  1  0 ]   (S4 at D2 and D4... D2 is epoch 1, D4 epoch 2)
	M := uint16(m.MaxDist())
	want := [][]uint16{
		{1, 0, M},
		{0, 2, 0},
		{0, 0, 0},
		{0, 1, 0},
		{1, 0, 1},
	}
	// S4's out-neighbors are D0 and D2 (edges 4->0, 4->2): epoch 0 and 1.
	want[4] = []uint16{0, 0, M}
	// Recompute expectations directly from the graph to avoid hand errors:
	g := fig1Graph()
	for line := 0; line < 5; line++ {
		for e := 0; e < 3; e++ {
			// next referencing epoch >= e for vertex `line`
			dist := int(M)
			for _, d := range g.Out.Neighs(graph.V(line)) {
				de := int(d) / 2
				if de >= e {
					if dd := de - e; dd < dist {
						dist = dd
					}
				}
			}
			want[line][e] = uint16(dist)
		}
	}
	for line := range want {
		for e := range want[line] {
			if got := m.Entry(line, e); got != want[line][e] {
				t.Errorf("entry[C%d][E%d] = %d, want %d", line, e, got, want[line][e])
			}
		}
	}
	// Spot-check the three values the paper calls out for C0 (S0, whose
	// only reference is at D2 in epoch 1): 1 at E0, 0 at E1, M at E2.
	if m.Entry(0, 0) != 1 || m.Entry(0, 1) != 0 || m.Entry(0, 2) != M {
		t.Errorf("C0 row = [%d %d %d], want [1 0 %d]", m.Entry(0, 0), m.Entry(0, 1), m.Entry(0, 2), M)
	}
}

func TestInterIntraEncodingFields(t *testing.T) {
	m := buildFig5Table(InterIntra)
	msb := uint16(1) << 3 // 4-bit entries
	// S0 (line 0) is referenced at D2 only (epoch 1).
	// E0: not referenced -> MSB set, distance 1.
	if got := m.Entry(0, 0); got != msb|1 {
		t.Errorf("C0E0 = %#x, want MSB|1", got)
	}
	// E1: referenced -> MSB clear, low bits = final-access sub-epoch.
	if got := m.Entry(0, 1); got&msb != 0 {
		t.Errorf("C0E1 = %#x, want MSB clear", got)
	}
	// E2: never referenced again -> MSB set, sentinel distance.
	if got := m.Entry(0, 2); got != msb|uint16(m.MaxDist()) {
		t.Errorf("C0E2 = %#x, want MSB|sentinel", got)
	}
}

func TestAlgorithm2NextRef(t *testing.T) {
	g := fig1Graph()
	tab := rebuildWithEpochSize(&g.Out, 5, 1, InterIntra, 8, 2)
	m := tab.NewMatrix()
	// Epoch 0 = {D0,D1}, epoch 1 = {D2,D3}, epoch 2 = {D4}.
	// S1 (line 1) is referenced at D0 and D4.
	// At cur=D0 (sub-epoch of D0 <= lastSub since D0 is its last access in
	// epoch 0): distance 0.
	if got := nextRef(t, tab, m, 1, 0); got != 0 {
		t.Errorf("NextRef(S1, D0) = %d, want 0 (still referenced this epoch)", got)
	}
	// At cur=D1, past S1's final access in epoch 0; next epoch (1) has no
	// reference, so Algorithm 2 line 16 returns 1 + dist stored in E1.
	// S1's E1 entry: not referenced, next ref at epoch 2 -> dist 1. So 2.
	if got := nextRef(t, tab, m, 1, 1); got != 2 {
		t.Errorf("NextRef(S1, D1) = %d, want 2 (next use in epoch 2)", got)
	}
	// S2 (line 2) referenced at D0, D1, D3: at D1 still current (lastSub
	// covers D1): 0.
	if got := nextRef(t, tab, m, 2, 1); got != 0 {
		t.Errorf("NextRef(S2, D1) = %d, want 0", got)
	}
	// S0 (line 0) at D4 (epoch 2): no further use -> sentinel distance.
	if got := nextRef(t, tab, m, 0, 4); got < m.MaxDist() {
		t.Errorf("NextRef(S0, D4) = %d, want >= sentinel %d", got, m.MaxDist())
	}
}

func TestInterOnlyQuantizationLoss(t *testing.T) {
	// The inter-only encoding cannot see past the final access within an
	// epoch: after S1's last use at D0, it still reports 0 for cur=D1.
	g := fig1Graph()
	io := rebuildWithEpochSize(&g.Out, 5, 1, InterOnly, 8, 2)
	ii := rebuildWithEpochSize(&g.Out, 5, 1, InterIntra, 8, 2)
	if got := nextRef(t, io, io.NewMatrix(), 1, 1); got != 0 {
		t.Errorf("inter-only NextRef(S1, D1) = %d, want 0 (the documented loss)", got)
	}
	if got := nextRef(t, ii, ii.NewMatrix(), 1, 1); got == 0 {
		t.Error("inter+intra should see past the final access in the epoch")
	}
}

func TestSingleEpochEncoding(t *testing.T) {
	g := fig1Graph()
	tab := rebuildWithEpochSize(&g.Out, 5, 1, SingleEpoch, 8, 2)
	m := tab.NewMatrix()
	// S1 referenced at D0 (epoch 0) and D4 (epoch 2). Next-epoch bit for
	// E0 must be clear (no use in epoch 1), so past the final access the
	// best SE can say is "2".
	if got := nextRef(t, tab, m, 1, 1); got != 2 {
		t.Errorf("SE NextRef(S1, D1) = %d, want coarse 2", got)
	}
	// S4 referenced at D0 and D2: next-epoch bit set at E0 -> past final
	// access it reports 1.
	if got := nextRef(t, tab, m, 4, 1); got != 1 {
		t.Errorf("SE NextRef(S4, D1) = %d, want 1", got)
	}
	if m.ResidentColumns() != 1 {
		t.Error("single-epoch must pin one column")
	}
	if ii := rebuildWithEpochSize(&g.Out, 5, 1, InterIntra, 8, 2); ii.ResidentColumns() != 2 {
		t.Error("inter+intra must pin two columns")
	}
}

func TestMatrixGeometryDefaults(t *testing.T) {
	g := graph.Uniform(10000, 80000, 3)
	m := BuildMatrix(&g.Out, 10000, 16, InterIntra, 8)
	if m.NumEpochs > 256 {
		t.Errorf("NumEpochs = %d, want <= 256 for 8-bit", m.NumEpochs)
	}
	if m.EpochSize != (10000+255)/256 {
		t.Errorf("EpochSize = %d, want ceil(n/256)", m.EpochSize)
	}
	if m.SubEpochs != 127 {
		t.Errorf("SubEpochs = %d, want 127", m.SubEpochs)
	}
	if m.NumLines != (10000+15)/16 {
		t.Errorf("NumLines = %d", m.NumLines)
	}
	if m.ColumnBytes() != m.NumLines {
		t.Errorf("ColumnBytes = %d, want %d for 8-bit entries", m.ColumnBytes(), m.NumLines)
	}
}

func TestMatrixQuantizationWidths(t *testing.T) {
	g := graph.Uniform(4096, 32768, 5)
	for _, bits := range []uint{4, 8, 16} {
		m := BuildTable(&g.Out, 4096, 16, InterIntra, bits)
		if m.NumEpochs > 1<<bits {
			t.Errorf("bits=%d: NumEpochs %d exceeds 2^bits", bits, m.NumEpochs)
		}
		if m.MaxDist() != 1<<(bits-1)-1 {
			t.Errorf("bits=%d: MaxDist = %d", bits, m.MaxDist())
		}
		// Every entry must fit in `bits` bits.
		limit := 1 << int(bits)
		for line := 0; line < m.NumLines; line += 17 {
			for e := 0; e < m.NumEpochs; e++ {
				if int(m.Entry(line, e)) >= limit {
					t.Fatalf("bits=%d: entry overflow %#x", bits, m.Entry(line, e))
				}
			}
		}
	}
}

// kindBits is one table encoding: a Kind at a quantization width.
type kindBits struct {
	kind Kind
	bits uint
}

// tableKinds lists every (Kind, width) pair BuildTable accepts among the
// widths the experiments use: SingleEpoch needs at least 5 bits.
func tableKinds() (out []kindBits) {
	for _, kind := range []Kind{InterOnly, InterIntra, SingleEpoch} {
		for _, bits := range []uint{4, 5, 8, 16} {
			if kind != SingleEpoch || bits >= 5 {
				out = append(out, kindBits{kind, bits})
			}
		}
	}
	return out
}

// lineEpochs reads a line's exact per-epoch reference data straight off
// the transpose: the epochs that reference it, each mapped to the
// sub-epoch of its last reference there. References at or beyond the
// outer loop's n vertices are never reached.
func lineEpochs(g *geometry, ref *graph.Adj, n, line int) map[int]int {
	last := make(map[int]int)
	for v := line * g.ElemsPerLine; v < (line+1)*g.ElemsPerLine && v < ref.N(); v++ {
		for _, d := range ref.Neighs(graph.V(v)) {
			if int(d) >= n {
				continue
			}
			e := int(d) / g.EpochSize
			sub := (int(d) - e*g.EpochSize) / g.SubEpochSize
			if sub >= g.SubEpochs {
				sub = g.SubEpochs - 1
			}
			if l, ok := last[e]; !ok || sub > l {
				last[e] = sub
			}
		}
	}
	return last
}

// wantNextRef evaluates Algorithm 2 for a line with the given lineEpochs
// at outer-loop vertex cur. It shares no code with the table build, its
// encoding or its storage, nor with Matrix's memo and search, only the
// epoch geometry.
func wantNextRef(g *geometry, last map[int]int, cur graph.V) int {
	maxD := g.MaxDist()
	// dist is the saturated distance from epoch from to the first epoch at
	// or after it that references the line.
	dist := func(from int) int {
		for e := from; e < g.NumEpochs && e-from < maxD; e++ {
			if _, ok := last[e]; ok {
				return e - from
			}
		}
		return maxD
	}
	e := int(cur) / g.EpochSize
	sub := (int(cur) - e*g.EpochSize) / g.SubEpochSize
	l, hit := last[e]
	switch {
	case g.Kind == InterOnly || !hit:
		return dist(e)
	case sub <= l:
		return 0
	case g.Kind == SingleEpoch:
		if _, ok := last[e+1]; ok {
			return 1
		}
		return 2
	case e+1 >= g.NumEpochs:
		return maxD + 1
	}
	return 1 + dist(e+1)
}

// oracleQuery is one (line, current vertex) question of
// TestNextRefAgainstOracle.
type oracleQuery struct {
	line int
	cur  graph.V
}

// oracleQueries returns walks of four queries on one line each: a vertex,
// another in its epoch (a memo hit), one 1-4 epochs later (a resumed
// search) and one at or before that (usually an earlier epoch: an
// iteration restart or a tile switch). Walks pick lines at random, so a
// line's memo also meets later walks from any epoch. Every eighth walk is
// on the last line, and every fourth starts in the last epoch, where
// Algorithm 2 has no next column.
func oracleQueries(rng *rand.Rand, g *geometry, n int) []oracleQuery {
	clamp := func(v int) graph.V { return graph.V(min(v, n-1)) }
	lastEpoch := (g.NumEpochs - 1) * g.EpochSize
	var qs []oracleQuery
	for walk := 0; walk < 500; walk++ {
		line := rng.Intn(g.NumLines)
		if walk%8 == 0 {
			line = g.NumLines - 1
		}
		c0 := rng.Intn(n)
		if walk%4 == 0 {
			c0 = lastEpoch + rng.Intn(n-lastEpoch)
		}
		c1 := clamp(c0/g.EpochSize*g.EpochSize + rng.Intn(g.EpochSize))
		c2 := clamp(int(c1) + (1+rng.Intn(4))*g.EpochSize)
		c3 := graph.V(rng.Intn(int(c2) + 1))
		for _, cur := range []graph.V{graph.V(c0), c1, c2, c3} {
			qs = append(qs, oracleQuery{line, cur})
		}
	}
	return qs
}

// TestNextRefAgainstOracle is the central property test: for every
// encoding and width, at line widths of 4 B elements and of bit
// frontiers, and with an outer loop that reaches every reference or stops
// short of some, Matrix.NextRef must equal both Algorithm 2 evaluated on
// the transpose (lineEpochs, wantNextRef) and the decode of the table's
// entries (Table.NextRef), query after query on one engine, so every path
// of its memo is crossed: repeats within an epoch, forward jumps and
// backward steps (counted, and each required). That covers the table's
// 1- and 2-byte stores and the last column. NextRef must also never
// place a line further away than its exact next reference, unless that
// reference is beyond the encodable distance.
func TestNextRefAgainstOracle(t *testing.T) {
	const n = 2048
	g := graph.Uniform(n, 16384, 21)
	for _, kb := range tableKinds() {
		for _, epl := range []int{16, 512} {
			t.Run(fmt.Sprintf("%v/%d-bit/%d-per-line", kb.kind, kb.bits, epl), func(t *testing.T) {
				for _, nv := range []int{n, n - 333} {
					t.Run(fmt.Sprintf("%d-vertices", nv), func(t *testing.T) {
						tab := BuildTable(&g.Out, nv, epl, kb.kind, kb.bits)
						m := BuildMatrix(&g.Out, nv, epl, kb.kind, kb.bits)
						epochs := make(map[int]map[int]int) // lineEpochs by line
						prev := make(map[int]int)           // each line's last queried epoch
						var same, forward, backward int
						for _, q := range oracleQueries(rand.New(rand.NewSource(17)), &m.geometry, nv) {
							line, cur := q.line, q.cur
							if epochs[line] == nil {
								epochs[line] = lineEpochs(&m.geometry, &g.Out, nv, line)
							}
							e := int(cur) / m.EpochSize
							if p, ok := prev[line]; ok {
								switch {
								case e == p:
									same++
								case e > p:
									forward++
								default:
									backward++
								}
							}
							prev[line] = e
							got := nextRef(t, tab, m, line, cur)
							if want := wantNextRef(&m.geometry, epochs[line], cur); got != want {
								t.Fatalf("line %d cur %d: NextRef=%d, Algorithm 2 on the transpose gives %d", line, cur, got, want)
							}
							next := -1 // exact next reference after cur, if any
							for v := line * epl; v < (line+1)*epl && v < n; v++ {
								if x, ok := g.Out.NextAfter(graph.V(v), cur); ok && int(x) < nv && (next < 0 || int(x) < next) {
									next = int(x)
								}
							}
							if next >= 0 {
								d := next/m.EpochSize - int(cur)/m.EpochSize
								if d <= m.MaxDist() && got > d {
									t.Fatalf("line %d cur %d: NextRef=%d beyond the next reference %d epochs away", line, cur, got, d)
								}
							}
						}
						if same == 0 || forward == 0 || backward == 0 {
							t.Fatalf("queries repeated an epoch %d times, moved forward %d, backward %d: every memo path must be crossed", same, forward, backward)
						}
					})
				}
			})
		}
	}
}

// TestBuildTableWorkerInvariant holds BuildTable to its promise that the
// entries are bit-identical at every worker count. Workers of the
// epoch-major build write neighbouring runs of the same columns, so a
// slipped chunk or block boundary shows here. 1000 lines split unevenly
// over 3 workers (334, 334, 332 lines) and, below 16 bits, end each
// worker's range on a partial block; 100 lines is below
// minLinesPerWorker, so that build stays on one worker.
func TestBuildTableWorkerInvariant(t *testing.T) {
	const n = 4000
	g := graph.Uniform(n, 32000, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kb := range tableKinds() {
		for _, epl := range []int{4, 40} {
			runtime.GOMAXPROCS(1)
			serial := BuildTable(&g.Out, n, epl, kb.kind, kb.bits)
			runtime.GOMAXPROCS(3)
			par := BuildTable(&g.Out, n, epl, kb.kind, kb.bits)
			if par.geometry != serial.geometry {
				t.Fatalf("%v %d-bit, %d lines: geometry differs between 1 and 3 workers", kb.kind, kb.bits, serial.NumLines)
			}
			for line := 0; line < serial.NumLines; line++ {
				for e := 0; e < serial.NumEpochs; e++ {
					if a, b := serial.Entry(line, e), par.Entry(line, e); a != b {
						t.Fatalf("%v %d-bit: Entry(%d, %d) = %#x on 1 worker, %#x on 3", kb.kind, kb.bits, line, e, a, b)
					}
				}
			}
		}
	}
}

// Property: rows are internally consistent — an entry with distance d>0 at
// epoch e implies the entry at epoch e+d shows a reference this epoch (for
// inter+intra encoding, MSB clear).
func TestMatrixRowConsistencyProperty(t *testing.T) {
	g := graph.Kron(11, 6, 9)
	n := g.NumVertices()
	m := BuildTable(&g.Out, n, 16, InterIntra, 8)
	msb := uint16(1) << 7
	f := func(lineRaw uint16, eRaw uint8) bool {
		line := int(lineRaw) % m.NumLines
		e := int(eRaw) % m.NumEpochs
		entry := m.Entry(line, e)
		if entry&msb == 0 {
			return true // referenced this epoch
		}
		d := int(entry &^ msb)
		if d == 0 || d >= m.MaxDist() || e+d >= m.NumEpochs {
			return true // sentinel or saturated
		}
		target := m.Entry(line, e+d)
		return target&msb == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestBuildPOPTAndReservedWays(t *testing.T) {
	g := graph.Uniform(1<<15, 8<<15, 2)
	sp := newTestSpace()
	src := sp.AllocBytes("srcData", g.NumVertices(), 4, true)
	fr := sp.Alloc("frontier", g.NumVertices(), 1, true)
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, src, fr)
	// srcData: 32768 verts / 16 per line = 2048 lines -> 2048 B/column.
	// frontier: 32768 bits / 512 per line = 64 lines -> 64 B/column.
	// Two resident columns each: 2*(2048+64) = 4224 B.
	sets := 128
	want := (4224 + sets*64 - 1) / (sets * 64) // = 1
	if got := p.ReservedWays(sets); got != want {
		t.Errorf("ReservedWays(%d sets) = %d, want %d", sets, got, want)
	}
	if p.Name() != "P-OPT" {
		t.Errorf("Name = %q", p.Name())
	}
}

// TestBuildPOPTFootprint holds P-OPT to answering from the merged
// transpose: at 16 bits a 2^17-vertex graph has 8,192 lines of 4 B
// elements and 2^16 epochs, so materializing the table would take 1 GiB,
// while the transpose and the per-line memo take a few MiB.
func TestBuildPOPTFootprint(t *testing.T) {
	const n = 1 << 17
	g := graph.Uniform(n, 8*n, 3)
	src := newTestSpace().AllocBytes("srcData", n, 4, true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := BuildPOPT(&g.Out, n, InterIntra, 16, src)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Errorf("BuildPOPT at 16 bits allocated %d MiB, want under 64 MiB", got>>20)
	}
	if m := p.matrices[0]; m.NumLines != 8192 || m.NumEpochs != 1<<16 {
		t.Errorf("geometry %d lines x %d epochs, want 8192 x 65536", m.NumLines, m.NumEpochs)
	}
}

func TestEpochStreamAccounting(t *testing.T) {
	g := graph.Uniform(1<<12, 8<<12, 2)
	sp := newTestSpace()
	src := sp.AllocBytes("srcData", g.NumVertices(), 4, true)
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, src)
	p.ResetEpoch()
	if p.EpochStreams != 1 {
		t.Fatalf("ResetEpoch should stream one column, got %d", p.EpochStreams)
	}
	es := p.streams[0].m.EpochSize
	p.UpdateIndex(graph.V(es)) // cross into epoch 1
	p.UpdateIndex(graph.V(es + 1))
	if p.EpochStreams != 2 {
		t.Fatalf("EpochStreams = %d, want 2 (no re-stream within epoch)", p.EpochStreams)
	}
	wantBytes := uint64(2 * p.streams[0].m.ColumnBytes())
	if p.BytesStreamed != wantBytes {
		t.Fatalf("BytesStreamed = %d, want %d", p.BytesStreamed, wantBytes)
	}
}

func TestMatrixSharingBetweenSameGeometryStreams(t *testing.T) {
	g := graph.Uniform(1<<12, 8<<12, 2)
	sp := newTestSpace()
	a := sp.AllocBytes("a", g.NumVertices(), 4, true)
	b := sp.AllocBytes("b", g.NumVertices(), 4, true) // same elems/line as a
	fr := sp.Alloc("fr", g.NumVertices(), 1, true)    // different geometry
	p := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, a, b, fr)
	if p.streams[0].m != p.streams[1].m {
		t.Error("same-geometry streams must share one matrix (Section V-F)")
	}
	if p.streams[0].m == p.streams[2].m {
		t.Error("bit-vector stream cannot share the 4B stream's matrix")
	}
	// Reservation counts the shared matrix once: equal to a P-OPT with
	// only streams a and fr.
	ref := BuildPOPT(&g.Out, g.NumVertices(), InterIntra, 8, a, fr)
	if p.ReservedWays(128) != ref.ReservedWays(128) {
		t.Errorf("shared matrix double-counted: %d vs %d ways", p.ReservedWays(128), ref.ReservedWays(128))
	}
	// Epoch streaming also counts it once: 2 distinct matrices per epoch.
	p.ResetEpoch()
	if p.EpochStreams != 2 {
		t.Errorf("EpochStreams = %d, want 2 distinct columns", p.EpochStreams)
	}
}
