package graph

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// synthEdges builds a deterministic pseudo-random edge list big enough to
// engage the parallel build phases (m > minEdgesPerWorker forks at
// GOMAXPROCS >= 2) without a generator in the loop.
func synthEdges(n, m int, seed uint64) []Edge {
	edges := make([]Edge, m)
	x := seed | 1
	for i := range edges {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src := V(x % uint64(n))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		edges[i] = Edge{src, V(x % uint64(n))}
	}
	return edges
}

// atGOMAXPROCS runs fn with the given GOMAXPROCS, restoring the old value.
func atGOMAXPROCS(p int, fn func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestBuildWorkerInvariance pins the tentpole property of the parallel
// build: the Graph bytes are identical at every worker count and across
// repeated runs. It runs in the CI race job, so the disjoint-range claims
// of the placement and sort phases are also checked by the race detector.
func TestBuildWorkerInvariance(t *testing.T) {
	// The second shape crosses radixMinVerts (with a vertex count that is
	// not a bucket multiple), so the radix build's disjoint-bucket claims
	// run under the race detector too.
	for _, tc := range []struct {
		name string
		n, m int
	}{
		{"counting-sort", 1 << 14, 4*minEdgesPerWorker + 12345},
		{"radix", radixMinVerts + 12345, 3*(radixMinVerts+12345) + 999},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := synthEdges(tc.n, tc.m, 99)
			var want uint64
			for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				for run := 0; run < 2; run++ {
					var g *Graph
					atGOMAXPROCS(p, func() { g = FromEdges("inv", tc.n, edges) })
					if err := g.Validate(); err != nil {
						t.Fatalf("GOMAXPROCS=%d run=%d: %v", p, run, err)
					}
					sum := g.Checksum()
					if want == 0 {
						want = sum
					} else if sum != want {
						t.Fatalf("GOMAXPROCS=%d run=%d: checksum %#x, want %#x", p, run, sum, want)
					}
				}
			}
		})
	}
}

// TestBuildMatchesSerialReference checks the parallel build against a
// straightforward serial counting-sort + sort.Slice reference on edge
// lists crossing the worker grain, including degenerate shapes (empty,
// single vertex, all-duplicate).
func TestBuildMatchesSerialReference(t *testing.T) {
	refAdj := func(n int, edges []Edge, transpose bool) Adj {
		counts := make([]uint64, n+1)
		for _, e := range edges {
			k := e.Src
			if transpose {
				k = e.Dst
			}
			counts[k+1]++
		}
		for i := 0; i < n; i++ {
			counts[i+1] += counts[i]
		}
		na := make([]V, len(edges))
		cursor := make([]uint64, n)
		for _, e := range edges {
			k, v := e.Src, e.Dst
			if transpose {
				k, v = e.Dst, e.Src
			}
			na[counts[k]+cursor[k]] = v
			cursor[k]++
		}
		w := uint64(0)
		newOA := make([]uint64, n+1)
		for v := 0; v < n; v++ {
			seg := na[counts[v]:counts[v+1]]
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
			newOA[v] = w
			for i, u := range seg {
				if i > 0 && u == seg[i-1] {
					continue
				}
				na[w] = u
				w++
			}
		}
		newOA[n] = w
		return Adj{OA: newOA, NA: na[:w:w]}
	}
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"empty", 4, nil},
		{"single-vertex-loops", 1, []Edge{{0, 0}, {0, 0}, {0, 0}}},
		{"all-duplicates", 8, func() []Edge {
			e := make([]Edge, 3*minEdgesPerWorker)
			for i := range e {
				e[i] = Edge{2, 5}
			}
			return e
		}()},
		{"random-multigrain", 1 << 12, synthEdges(1<<12, 2*minEdgesPerWorker+777, 7)},
		// Crosses radixMinVerts with a ragged final bucket: the radix path
		// must produce the counting-sort reference's bytes exactly.
		{"radix-large-verts", radixMinVerts + 999, synthEdges(radixMinVerts+999, 3*(radixMinVerts+999)+777, 11)},
	}
	for _, tc := range cases {
		for _, transpose := range []bool{false, true} {
			want := refAdj(tc.n, tc.edges, transpose)
			var got Adj
			atGOMAXPROCS(4, func() { got = adjFromEdges(tc.n, tc.edges, transpose) })
			if !equalU64(got.OA, want.OA) {
				t.Fatalf("%s transpose=%v: OA mismatch", tc.name, transpose)
			}
			if !equalV(got.NA, want.NA) {
				t.Fatalf("%s transpose=%v: NA mismatch", tc.name, transpose)
			}
		}
	}
}

// TestAdjTransposeMatchesDirect pins the transpose fast path: deriving
// the in-adjacency from the built CSR (stable scatter, no sort/dedup)
// must produce exactly the bytes of a full transpose build over the raw
// edge list, on both the direct and radix shapes and at several worker
// counts.
func TestAdjTransposeMatchesDirect(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"empty", 4, nil},
		{"single-vertex-loops", 1, []Edge{{0, 0}, {0, 0}, {0, 0}}},
		{"random-multigrain", 1 << 12, synthEdges(1<<12, 2*minEdgesPerWorker+777, 7)},
		{"radix-large-verts", radixMinVerts + 999, synthEdges(radixMinVerts+999, 3*(radixMinVerts+999)+777, 11)},
	}
	for _, tc := range cases {
		out := adjFromEdges(tc.n, tc.edges, false)
		want := adjFromEdges(tc.n, tc.edges, true)
		for _, p := range []int{1, 4} {
			var got Adj
			atGOMAXPROCS(p, func() { got = adjTranspose(tc.n, out) })
			if !equalU64(got.OA, want.OA) {
				t.Fatalf("%s GOMAXPROCS=%d: OA mismatch", tc.name, p)
			}
			if !equalV(got.NA, want.NA) {
				t.Fatalf("%s GOMAXPROCS=%d: NA mismatch", tc.name, p)
			}
		}
	}
}

// TestGeneratorWorkerInvariance pins chunk-parallel generation: a graph
// larger than one genChunk granule comes out byte-identical at every
// GOMAXPROCS. Uniform is the cheap generator, so it carries the
// multi-chunk case.
func TestGeneratorWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk generation is a few hundred ms")
	}
	const n = 1 << 14
	const m = genChunk + genChunk/2
	var want uint64
	for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		var g *Graph
		atGOMAXPROCS(p, func() { g = Uniform(n, m, 42) })
		sum := g.Checksum()
		if want == 0 {
			want = sum
		} else if sum != want {
			t.Fatalf("GOMAXPROCS=%d: checksum %#x, want %#x", p, sum, want)
		}
	}
}

// TestGeneratorChecksumsPinned hardcodes the checksum of one small graph
// per generator. Single-chunk generations must keep drawing from the
// historical rand.NewSource(seed) stream (chunkSeed(seed, 0) == seed);
// any accidental change to the draw order or the chunk layout shows up
// here before it silently invalidates the sweep goldens downstream.
func TestGeneratorChecksumsPinned(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"PowerLaw", PowerLaw(1<<11, 8, 2.0, 42), 0x85402465d20e788f},
		{"Community", Community(1<<11, 12, 64, 0.8, 43), 0xf1a674bbbb8e34c1},
		{"Kron", Kron(12, 4, 44), 0x393f625f5a1a6e19},
		{"Uniform", Uniform(1<<12, 4<<12, 45), 0x508e356e90e7226f},
		{"MeshScrambled", MeshScrambled(48, 48, 46), 0xb4336678244fb71d},
	}
	for _, tc := range cases {
		if got := tc.g.Checksum(); got != tc.want {
			t.Errorf("%s: checksum %#x, want %#x (legacy single-chunk stream changed?)", tc.name, got, tc.want)
		}
	}
}

// TestSortV checks the manual sort against the library sort across
// shapes that stress each code path: short insertion-sorted runs, long
// partitioned runs, duplicates, sorted, reversed, organ-pipe.
func TestSortV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, a []V) {
		t.Helper()
		want := append([]V(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortV(a)
		if !equalV(a, want) {
			t.Fatalf("%s: SortV diverges from sort.Slice (len=%d)", name, len(a))
		}
	}
	for _, size := range []int{0, 1, 2, 3, insertionCut, insertionCut + 1, 100, 1000, 65537} {
		a := make([]V, size)
		for i := range a {
			a[i] = V(rng.Intn(size + 1))
		}
		check("random", a)
		for i := range a {
			a[i] = V(i)
		}
		check("sorted", a)
		for i := range a {
			a[i] = V(size - i)
		}
		check("reversed", a)
		for i := range a {
			a[i] = V(i % 7)
		}
		check("dup-heavy", a)
		for i := range a {
			if i < size/2 {
				a[i] = V(i)
			} else {
				a[i] = V(size - i)
			}
		}
		check("organ-pipe", a)
	}
	// The hub-line corner: a one-element run before a long sorted run
	// (a DBP in-adjacency hub line is 1 + 96 142 elements). Median-of-three
	// Hoare partitioning peels a few elements per pass off this shape; the
	// depth budget must hand it to the library sort instead.
	check("hub-line", hubLine(96142))
}

// hubLine returns one large element followed by a sorted run of n.
func hubLine(n int) []V {
	a := make([]V, n+1)
	a[0] = V(n)
	for i := 1; i <= n; i++ {
		a[i] = V(i - 1)
	}
	return a
}

// TestDedupV checks in-place dedup on sorted inputs.
func TestDedupV(t *testing.T) {
	cases := []struct {
		in   []V
		want []V
	}{
		{nil, nil},
		{[]V{5}, []V{5}},
		{[]V{1, 1, 1, 1}, []V{1}},
		{[]V{1, 2, 3}, []V{1, 2, 3}},
		{[]V{0, 0, 1, 3, 3, 3, 9, 9}, []V{0, 1, 3, 9}},
	}
	for _, tc := range cases {
		a := append([]V(nil), tc.in...)
		n := dedupV(a)
		if n != len(tc.want) || !equalV(a[:n], tc.want) {
			t.Fatalf("dedupV(%v) = %v (n=%d), want %v", tc.in, a[:n], n, tc.want)
		}
	}
}
