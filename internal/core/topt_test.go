package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"popt/internal/graph"
	"popt/internal/mem"
)

// sortBuiltLineRefs is the reference merged transpose: each line's
// segment is the concatenation of its vertices' neighbor lists, sorted
// from scratch with graph.SortV, with repeats then dropped. BuildLineRefs
// must match it exactly.
func sortBuiltLineRefs(ref *graph.Adj, elemsPerLine int) *LineRefs {
	n := ref.N()
	numLines := (n + elemsPerLine - 1) / elemsPerLine
	oa := make([]uint64, numLines+1)
	var refs []graph.V
	for l := 0; l < numLines; l++ {
		var seg []graph.V
		for v := l * elemsPerLine; v < (l+1)*elemsPerLine && v < n; v++ {
			seg = append(seg, ref.Neighs(graph.V(v))...)
		}
		graph.SortV(seg)
		for i, u := range seg {
			if i == 0 || u != seg[i-1] {
				refs = append(refs, u)
			}
		}
		oa[l+1] = uint64(len(refs))
	}
	return &LineRefs{oa: oa, refs: refs}
}

// lineRefShapes returns one graph per generator family plus degenerate
// shapes: no edges, a self loop, and a hub whose list dominates its line.
func lineRefShapes() []*graph.Graph {
	hub := make([]graph.Edge, 0, 2*600)
	for i := 1; i <= 600; i++ {
		hub = append(hub, graph.Edge{Src: 0, Dst: graph.V(i % 1024)}, graph.Edge{Src: graph.V(i % 1024), Dst: graph.V(i * 7 % 1024)})
	}
	return []*graph.Graph{
		graph.PowerLaw(1<<11, 8, 2.0, 42),
		graph.Community(1<<11, 12, 64, 0.8, 43),
		graph.Kron(12, 4, 44),
		graph.Uniform(1<<12, 4<<12, 45),
		graph.MeshScrambled(48, 48, 46),
		graph.Mesh(30, 31),
		graph.FromEdges("empty", 4, nil),
		graph.FromEdges("loop", 1, []graph.Edge{{Src: 0, Dst: 0}}),
		graph.FromEdges("hub", 1024, hub),
	}
}

// TestBuildLineRefsMatchesSortBuild pins the sort-free merge against the
// SortV reference build across generator shapes, both adjacency
// directions, plain and compact layouts, the three line geometries the
// kernels use (8 B, 4 B and 1-bit elements), and several worker counts.
func TestBuildLineRefsMatchesSortBuild(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, plain := range lineRefShapes() {
		for _, g := range []*graph.Graph{plain, plain.WithLayout(graph.LayoutCompact)} {
			for dir, ref := range []*graph.Adj{&g.Out, &g.In} {
				for _, epl := range []int{8, 16, 512} {
					want := sortBuiltLineRefs(ref, epl).Checksum()
					for _, workers := range workerCounts {
						if got := buildLineRefs(ref, epl, workers).Checksum(); got != want {
							t.Errorf("%s compact=%v dir=%d epl=%d workers=%d: checksum %x, want %x",
								g.Name, ref.IsCompact(), dir, epl, workers, got, want)
						}
					}
					if got := BuildLineRefs(ref, epl).Checksum(); got != want {
						t.Errorf("%s compact=%v dir=%d epl=%d: BuildLineRefs checksum %x, want %x",
							g.Name, ref.IsCompact(), dir, epl, got, want)
					}
				}
			}
		}
	}
}

// TestLineRefsSeekMatchesNextAfter checks seek against an oracle that
// never sees the merged table: for a random (line, x), the answer is the
// smallest neighbor at or after x of any of the line's vertices, found with
// Adj.NextAfter, in both layouts and directions at the three line
// geometries. Each query is asked from the segment head and again resumed
// from an earlier answer's index, as T-OPT's memo and P-OPT's refresh do.
func TestLineRefsSeekMatchesNextAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, plain := range lineRefShapes() {
		for _, g := range []*graph.Graph{plain, plain.WithLayout(graph.LayoutCompact)} {
			for dir, ref := range []*graph.Adj{&g.Out, &g.In} {
				n := ref.N()
				for _, epl := range []int{8, 16, 512} {
					lr := BuildLineRefs(ref, epl)
					for q := 0; q < 200; q++ {
						l := rng.Intn(lr.numLines())
						x := graph.V(rng.Intn(n + 2))
						want := noRef
						for v := l * epl; v < min((l+1)*epl, n); v++ {
							if x == 0 {
								if ns := ref.Neighs(graph.V(v)); len(ns) > 0 && ns[0] < want {
									want = ns[0]
								}
							} else if next, ok := ref.NextAfter(graph.V(v), x-1); ok && next < want {
								want = next
							}
						}
						earlier, _ := lr.seek(l, lr.oa[l], graph.V(rng.Intn(int(x)+1)))
						for _, from := range []uint64{lr.oa[l], earlier} {
							pos, got := lr.seek(l, from, x)
							atPos := noRef
							if pos < lr.oa[l+1] {
								atPos = lr.refs[pos]
							}
							if got != want || atPos != got {
								t.Fatalf("%s compact=%v dir=%d epl=%d line %d x %d from %d: seek = (%d, %d), want %d",
									g.Name, ref.IsCompact(), dir, epl, l, x, from, pos, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildLineRefsTileSubAdjacency builds the merged transpose of tile
// sub-adjacencies (graph.Adj.Sub), whose neighbor IDs run past their own
// N(), as NewTiledPOPT does: the build must cover those IDs and still
// match the reference build.
func TestBuildLineRefsTileSubAdjacency(t *testing.T) {
	u := graph.Uniform(4096, 32768, 9)
	for _, g := range []*graph.Graph{u, u.WithLayout(graph.LayoutCompact)} {
		for _, tile := range [][2]graph.V{{0, 8}, {0, 1024}, {3072, 4096}} {
			sub := g.Out.Sub(tile[0], tile[1])
			beyond := false
			for v := 0; v < sub.N(); v++ {
				for _, x := range sub.Neighs(graph.V(v)) {
					beyond = beyond || int(x) >= sub.N()
				}
			}
			if !beyond {
				t.Fatalf("tile %v names no neighbor at or above its %d vertices", tile, sub.N())
			}
			for _, epl := range []int{8, 16, 512} {
				want := sortBuiltLineRefs(&sub, epl).Checksum()
				for _, workers := range []int{1, 3} {
					if got := buildLineRefs(&sub, epl, workers).Checksum(); got != want {
						t.Errorf("compact=%v tile %v epl=%d workers=%d: checksum %x, want %x",
							g.Out.IsCompact(), tile, epl, workers, got, want)
					}
				}
			}
		}
	}
}

// TestMergeRunsSorts drives mergeRuns directly with random run counts and
// lengths, including empty and single runs and odd counts.
func TestMergeRunsSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(20)
		var a []graph.V
		runs := []int{0}
		for r := 0; r < k; r++ {
			run := make([]graph.V, rng.Intn(8))
			for i := range run {
				run[i] = graph.V(rng.Intn(50))
			}
			sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
			a = append(a, run...)
			runs = append(runs, len(a))
		}
		want := append([]graph.V(nil), a...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		mergeRuns(a, make([]graph.V, len(a)), runs)
		for i := range want {
			if a[i] != want[i] {
				t.Fatalf("trial %d (%d runs): merged %v, want %v", trial, k, a, want)
			}
		}
	}
}

// oracleNextRef is the un-memoized exact answer, computed independently
// of LineRefs: the earliest reference after cur among the line's
// vertices, as a distance, or infDist.
func oracleNextRef(ref *graph.Adj, epl, line int, cur graph.V) int64 {
	best := int64(infDist)
	for v := line * epl; v < (line+1)*epl && v < ref.N(); v++ {
		if next, ok := ref.NextAfter(graph.V(v), cur); ok && int64(next)-int64(cur) < best {
			best = int64(next) - int64(cur)
		}
	}
	return best
}

// TestTOPTMemoMatchesUnmemoized is the memo's property test: over random
// (line, cur) sequences that advance, repeat, move backwards, restart, and
// interleave several monotone per-core cursors, every memoized answer
// must equal the exact un-memoized next reference.
func TestTOPTMemoMatchesUnmemoized(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.PowerLaw(1<<11, 8, 2.0, 7),
		graph.Kron(11, 6, 8),
		graph.Uniform(1<<11, 8<<11, 9),
	} {
		for _, elemBits := range []uint64{64, 32, 1} {
			t.Run(fmt.Sprintf("%s/%db", g.Name, elemBits), func(t *testing.T) {
				n := g.NumVertices()
				arr := mem.NewSpace().Alloc("srcData", n, elemBits, true)
				epl := arr.ElemsPerLine()
				p := BuildTOPT(&g.Out, arr)
				s := &p.streams[0]
				numLines := (n + epl - 1) / epl
				rng := rand.New(rand.NewSource(int64(elemBits) + int64(n)))
				cores := make([]graph.V, 4)
				cur := graph.V(0)
				for step := 0; step < 4000; step++ {
					before := p.gen
					prev := cur
					switch r := rng.Intn(10); {
					case r < 4: // advance
						cur += graph.V(rng.Intn(12))
					case r < 6: // repeat
					case r < 7: // move backwards
						cur = graph.V(rng.Intn(int(cur) + 1))
					case r < 8: // iteration restart
						cur = 0
					default: // one of several interleaved monotone cores
						c := rng.Intn(len(cores))
						cores[c] += graph.V(rng.Intn(40))
						cur = cores[c]
					}
					if int(cur) >= n {
						cur = graph.V(n - 1)
					}
					p.UpdateIndex(cur)
					if bumped := p.gen != before; bumped != (cur < prev) {
						t.Fatalf("step %d: cur %d -> %d moved generation %d -> %d", step, prev, cur, before, p.gen)
					}
					// A small hot set of lines keeps the memo busy; the rest
					// are spread over the array.
					for q := 0; q < 6; q++ {
						line := rng.Intn(numLines)
						if q < 3 {
							line = rng.Intn(8) % numLines
						}
						v := line*epl + rng.Intn(epl)
						if v >= n {
							v = n - 1
						}
						got := p.nextRef(s, arr.Addr(v))
						if want := oracleNextRef(&g.Out, epl, line, cur); got != want {
							t.Fatalf("step %d line %d cur %d: memoized %d, want %d", step, line, cur, got, want)
						}
					}
				}
			})
		}
	}
}

// TestTOPTMemoGenerationWrap checks that a wrapping generation counter
// clears the stamps: an entry left from 2^32 generations ago must not be
// mistaken for a current one.
func TestTOPTMemoGenerationWrap(t *testing.T) {
	g := fig1Graph()
	src := mem.NewSpace().AllocBytes("srcData", g.NumVertices(), 64, true)
	p := BuildTOPT(&g.Out, src)
	s := &p.streams[0]
	// S2 is referenced at D0, D1 and D3 (fig. 3): at D1 its next is D3.
	p.UpdateIndex(1)
	if d := p.nextRef(s, src.Addr(2)); d != 2 {
		t.Fatalf("S2 at D1: distance %d, want 2", d)
	}
	// Jump to the last generation before the counter wraps, leaving the
	// S2 entry stamped with generation 1, then restart the traversal.
	p.gen = ^uint32(0)
	p.UpdateIndex(0)
	if p.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", p.gen)
	}
	// Unless the wrap cleared the stamps, the old entry (D3) would pass
	// as current and hide S2's reference at D1.
	if d := p.nextRef(s, src.Addr(2)); d != 1 {
		t.Errorf("S2 at D0 after wrap: distance %d, want 1", d)
	}
}

// TestNewTOPTCopiesStreams checks that NewTOPT neither writes the
// caller's stream slice (a built LineRefs or memo state must not leak back
// into it) nor shares memo state between policies built from one slice.
func TestNewTOPTCopiesStreams(t *testing.T) {
	g := fig1Graph()
	src := mem.NewSpace().AllocBytes("srcData", g.NumVertices(), 64, true)
	streams := []OracleStream{{Arr: src, Ref: &g.Out}}
	a, b := NewTOPT(streams...), NewTOPT(streams...)
	if streams[0].LR != nil {
		t.Error("NewTOPT wrote the caller's OracleStream")
	}
	if &a.streams[0].memo[0] == &b.streams[0].memo[0] {
		t.Error("two T-OPT runs share one memo")
	}
}
