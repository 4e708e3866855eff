package graph

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample is the 5-vertex graph from Figure 1 of the paper. Its CSC is
//
//	OA: 0 3 5 7 8;  NA: 1 2 4 | 2 3 | 0 4 | 2 | 1 3
//
// and its CSR is
//
//	OA: 0 1 3 6 8;  NA: 2 | 0 4 | 0 1 3 | 1 4 | 0 2
func paperExample() *Graph {
	edges := []Edge{
		{0, 2},
		{1, 0}, {1, 4},
		{2, 0}, {2, 1}, {2, 3},
		{3, 1}, {3, 4},
		{4, 0}, {4, 2},
	}
	return FromEdges("fig1", 5, edges)
}

func TestPaperExampleCSRAndCSC(t *testing.T) {
	g := paperExample()
	wantOutOA := []uint64{0, 1, 3, 6, 8, 10}
	wantOutNA := []V{2, 0, 4, 0, 1, 3, 1, 4, 0, 2}
	if !equalU64(g.Out.OA, wantOutOA) {
		t.Errorf("CSR OA = %v, want %v", g.Out.OA, wantOutOA)
	}
	if !equalV(g.Out.NA, wantOutNA) {
		t.Errorf("CSR NA = %v, want %v", g.Out.NA, wantOutNA)
	}
	wantInOA := []uint64{0, 3, 5, 7, 8, 10}
	wantInNA := []V{1, 2, 4, 2, 3, 0, 4, 2, 1, 3}
	if !equalU64(g.In.OA, wantInOA) {
		t.Errorf("CSC OA = %v, want %v", g.In.OA, wantInOA)
	}
	if !equalV(g.In.NA, wantInNA) {
		t.Errorf("CSC NA = %v, want %v", g.In.NA, wantInNA)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNextAfterMatchesPaperScenarios(t *testing.T) {
	g := paperExample()
	// Replacement scenario A (Fig. 3): while processing D0, S1's next
	// reference is D4 and S2's next reference is D1.
	if next, ok := g.Out.NextAfter(1, 0); !ok || next != 4 {
		t.Errorf("NextAfter(S1, D0) = %d,%v want 4,true", next, ok)
	}
	if next, ok := g.Out.NextAfter(2, 0); !ok || next != 1 {
		t.Errorf("NextAfter(S2, D0) = %d,%v want 1,true", next, ok)
	}
	// Scenario B: while processing D1, S4's next ref is D2, S2's is D3.
	if next, ok := g.Out.NextAfter(4, 1); !ok || next != 2 {
		t.Errorf("NextAfter(S4, D1) = %d,%v want 2,true", next, ok)
	}
	if next, ok := g.Out.NextAfter(2, 1); !ok || next != 3 {
		t.Errorf("NextAfter(S2, D1) = %d,%v want 3,true", next, ok)
	}
	// S0's only out-neighbor is D2; past that there is no next reference.
	if _, ok := g.Out.NextAfter(0, 2); ok {
		t.Error("NextAfter(S0, D2) should have no next reference")
	}
}

func TestFromEdgesDeduplicates(t *testing.T) {
	g := FromEdges("dup", 3, []Edge{{0, 1}, {0, 1}, {0, 2}, {1, 0}, {1, 0}})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 after dedup", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeSwapsDirections(t *testing.T) {
	g := paperExample()
	tr := g.Transpose()
	if !equalU64(tr.Out.OA, g.In.OA) || !equalV(tr.Out.NA, g.In.NA) {
		t.Error("transpose Out should equal original In")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsProduceValidGraphs(t *testing.T) {
	for _, g := range Suite(ScaleTiny, 42) {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() == 0 || g.NumEdges() == 0 {
				t.Fatalf("degenerate graph: %v", g)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Kron(10, 4, 7)
	b := Kron(10, 4, 7)
	if a.NumEdges() != b.NumEdges() || !equalV(a.Out.NA, b.Out.NA) {
		t.Error("Kron with the same seed should be reproducible")
	}
	c := Kron(10, 4, 8)
	if equalV(a.Out.NA, c.Out.NA) {
		t.Error("Kron with different seeds should differ")
	}
}

func TestKronIsSkewedUniformIsNot(t *testing.T) {
	k := Kron(12, 8, 1)
	u := Uniform(1<<12, 8<<12, 1)
	kmax, _ := k.MaxDegree()
	umax, _ := u.MaxDegree()
	if kmax < 4*umax {
		t.Errorf("Kron max degree %d should dwarf uniform max degree %d", kmax, umax)
	}
}

func TestMeshProperties(t *testing.T) {
	g := Mesh(10, 12)
	if g.NumVertices() != 120 {
		t.Fatalf("vertices = %d, want 120", g.NumVertices())
	}
	if deg, _ := g.MaxDegree(); deg > 4 {
		t.Errorf("mesh max degree = %d, want <= 4", deg)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mesh is symmetric: In and Out must match.
	if !equalV(g.In.NA, g.Out.NA) || !equalU64(g.In.OA, g.Out.OA) {
		t.Error("mesh should be symmetric")
	}
}

func TestDBGPlacesHubsFirst(t *testing.T) {
	g := Kron(12, 8, 3)
	p := DBG(g)
	rg := p.Apply(g)
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Fatalf("reordering changed edge count: %d vs %d", rg.NumEdges(), g.NumEdges())
	}
	// Average degree of the first 10% of IDs should exceed that of the
	// last 10% by a wide margin after DBG.
	n := rg.NumVertices()
	tenth := n / 10
	sumDeg := func(lo, hi int) int {
		s := 0
		for v := lo; v < hi; v++ {
			s += rg.Out.Degree(V(v)) + rg.In.Degree(V(v))
		}
		return s
	}
	front, back := sumDeg(0, tenth), sumDeg(n-tenth, n)
	if front <= 4*back {
		t.Errorf("DBG front-degree sum %d should dominate back %d", front, back)
	}
}

func TestDBGPreservesIntraClassOrder(t *testing.T) {
	// All same degree -> DBG must be the identity.
	g := Mesh(1, 10) // path graph: interior vertices degree 2 each way
	p := DBG(g)
	// Vertices 1..8 all have total degree 4, vertices 0 and 9 degree 2. The
	// degree-4 class precedes the degree-2 class, and within each class the
	// original order is preserved.
	for v := 2; v <= 8; v++ {
		if p[v] != p[v-1]+1 {
			t.Errorf("intra-class order broken at %d: %v", v, p)
		}
	}
	if p[0] != p[9]-0 && p[0] >= p[9] {
		t.Errorf("endpoints should stay in original relative order: %v", p)
	}
}

func TestSegmentPartitionsEdges(t *testing.T) {
	g := Uniform(1<<10, 8<<10, 9)
	for _, tiles := range []int{1, 2, 3, 7, 16} {
		s := Segment(g, tiles)
		if err := s.Validate(); err != nil {
			t.Fatalf("tiles=%d: %v", tiles, err)
		}
	}
}

// TestSubAdjSharesNeighborStorage checks that a plain sub-adjacency is a
// view: its NA aliases the parent's NA at Start(lo), so a tile costs only
// its offsets. A compact parent has no plain NA to share, so its
// sub-adjacency must decode every list equal to the plain one.
func TestSubAdjSharesNeighborStorage(t *testing.T) {
	g := Uniform(1024, 8192, 4)
	const lo, hi = 256, 512
	sub := g.Out.Sub(lo, hi)
	if sub.N() != hi-lo {
		t.Fatalf("sub vertices = %d, want %d", sub.N(), hi-lo)
	}
	if len(sub.NA) == 0 || &sub.NA[0] != &g.Out.NA[g.Out.Start(lo)] {
		t.Fatal("plain sub-adjacency copied NA instead of sharing it at Start(lo)")
	}
	cg := g.WithLayout(LayoutCompact)
	if !cg.Out.IsCompact() {
		t.Fatal("WithLayout(LayoutCompact) returned a plain graph")
	}
	csub := cg.Out.Sub(lo, hi)
	for v := V(0); v < hi-lo; v++ {
		want := g.Out.Neighs(v + lo)
		for _, got := range [][]V{sub.Neighs(v), csub.Neighs(v)} {
			if !equalV(got, want) {
				t.Fatalf("vertex %d: neighbors %v, want %v", v, got, want)
			}
		}
	}
}

func TestRoundTripSerialization(t *testing.T) {
	g := Kron(10, 4, 11)
	var buf testBuffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != g.Name || !equalV(got.Out.NA, g.Out.NA) || !equalU64(got.In.OA, g.In.OA) {
		t.Error("round trip mismatch")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseEdgeList(t *testing.T) {
	src := "# comment\n0 1\n1 2\n\n2 0\n"
	g, err := ParseEdgeList(stringsReader(src), "tri", 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if _, err := ParseEdgeList(stringsReader("0 99\n"), "bad", 3); err == nil {
		t.Error("out-of-range endpoint should error")
	}
}

// Property: NextAfter agrees with a linear scan of the neighbor list.
func TestNextAfterProperty(t *testing.T) {
	g := Uniform(256, 2048, 13)
	f := func(vRaw, curRaw uint16) bool {
		v := V(vRaw) % 256
		cur := V(curRaw) % 256
		got, gotOK := g.Out.NextAfter(v, cur)
		var want V
		wantOK := false
		for _, u := range g.Out.Neighs(v) {
			if u > cur {
				want, wantOK = u, true
				break
			}
		}
		return got == want && gotOK == wantOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: FromEdges -> Validate holds for arbitrary random edge lists.
func TestFromEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		m := rng.Intn(256)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{V(rng.Intn(n)), V(rng.Intn(n))}
		}
		g := FromEdges("prop", n, edges)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := paperExample()
	hist := g.DegreeHistogram()
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != g.NumVertices() {
		t.Errorf("histogram sums to %d, want %d", total, g.NumVertices())
	}
}

// --- small helpers ---

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalV(a, b []V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type testBuffer = bytes.Buffer

func stringsReader(s string) io.Reader { return strings.NewReader(s) }

func TestValidateCatchesCorruption(t *testing.T) {
	// Failure injection: each corruption must be caught by Validate.
	fresh := func() *Graph { return paperExample() }

	g := fresh()
	g.Out.OA[2], g.Out.OA[3] = g.Out.OA[3], g.Out.OA[2] //lint:allow sharefreeze (inject non-monotone offsets)
	if g.Validate() == nil {
		t.Error("non-monotone offsets not detected")
	}

	g = fresh()
	g.Out.NA[0] = 99 //lint:allow sharefreeze (inject out-of-range neighbor)
	if g.Validate() == nil {
		t.Error("out-of-range neighbor not detected")
	}

	g = fresh()
	g.Out.NA[4], g.Out.NA[5] = g.Out.NA[5], g.Out.NA[4] //lint:allow sharefreeze (inject unsorted neighbors)
	if g.Validate() == nil {
		t.Error("unsorted neighbors not detected")
	}

	g = fresh()
	// Replace an out-edge so the CSC no longer matches the CSR.
	g.Out.NA[0] = 3 //lint:allow sharefreeze (0->2 becomes 0->3, CSC still encodes 0->2)
	if g.Validate() == nil {
		t.Error("CSR/CSC mismatch not detected")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a graph at all")); err == nil {
		t.Error("garbage magic accepted")
	}
	if _, err := Read(strings.NewReader("POPTG1")); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestDBGIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Uniform(128, 512, seed)
		p := DBG(g)
		seen := make([]bool, len(p))
		for _, v := range p {
			if int(v) >= len(p) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParseMatrixMarket(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 3 3
1 2
2 3
3 1
`
	g, err := ParseMatrixMarket(strings.NewReader(src), "tri")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 2 3.5
2 2 1.0
`
	g, err := ParseMatrixMarket(strings.NewReader(src), "sym")
	if err != nil {
		t.Fatal(err)
	}
	// 1-2 expands to both directions; the 2-2 self-loop does not double.
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if _, ok := g.Out.NextAfter(1, 0); !ok {
		t.Error("reverse edge 2->1 missing")
	}
}

func TestParseMatrixMarketErrors(t *testing.T) {
	bad := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n5 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n",
	}
	for i, src := range bad {
		if _, err := ParseMatrixMarket(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("case %d: accepted malformed input", i)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := Kron(9, 4, 3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMatrixMarket(&buf, g.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || !equalV(got.Out.NA, g.Out.NA) {
		t.Error("round trip mismatch")
	}
}
