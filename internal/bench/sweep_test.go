package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
)

// sweepMatrix renders four structurally different experiments (a plain
// grid, a base+setups grid, a per-cell-generated-graph sweep, and the
// update-phase pairs of fig14) at the given worker count.
func sweepMatrix(workers int) string {
	cfg := TinyConfig()
	cfg.Workers = workers
	var sb strings.Builder
	for _, run := range []func(Config) *Report{Fig2, Fig7, Fig11, Fig14} {
		sb.WriteString(run(cfg).String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSweepWorkerInvariance is the tentpole guarantee: sweep reports are
// byte-identical at every worker count, pinned against a checked-in golden
// so a regression can't slip in by breaking serial and parallel the same
// way twice.
func TestSweepWorkerInvariance(t *testing.T) {
	serial := sweepMatrix(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := sweepMatrix(workers); got != serial {
			t.Fatalf("report at %d workers diverges from serial:\n--- parallel ---\n%s--- serial ---\n%s", workers, got, serial)
		}
	}

	goldenPath := filepath.Join("testdata", "sweep.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./internal/bench -run SweepWorkerInvariance -update` after intentional changes): %v", err)
	}
	if string(want) != serial {
		t.Fatalf("sweep reports diverge from checked-in golden (intentional change? re-run with -update):\n--- got ---\n%s--- want ---\n%s", serial, want)
	}
}

// TestSweepPanicCell pins the failure path: a panicking cell surfaces as an
// error naming the cell, every other cell still runs, and the pool shuts
// down instead of deadlocking.
func TestSweepPanicCell(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		cells := make([]Cell, 8)
		for i := range cells {
			if i == 3 {
				cells[i] = Cell{Key: "boom", Run: func() { panic("exploded") }}
				continue
			}
			cells[i] = Cell{Key: fmt.Sprintf("ok-%d", i), Run: func() { ran.Add(1) }}
		}
		err := (&Sweep{Workers: workers}).Run(cells)
		if err == nil {
			t.Fatalf("workers=%d: panic in cell not surfaced", workers)
		}
		for _, want := range []string{"cell 3", "boom", "exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error %q missing %q", workers, err, want)
			}
		}
		if got := ran.Load(); got != 7 {
			t.Errorf("workers=%d: %d of 7 healthy cells ran", workers, got)
		}
	}
}

// TestSweepFirstErrorByCellOrder checks Run reports the lowest-index
// failure regardless of completion order.
func TestSweepFirstErrorByCellOrder(t *testing.T) {
	cells := []Cell{
		{Key: "a", Run: func() { panic("first") }},
		{Key: "b", Run: func() { panic("second") }},
	}
	err := (&Sweep{Workers: 2}).Run(cells)
	if err == nil || !strings.Contains(err.Error(), "cell 0") || !strings.Contains(err.Error(), "first") {
		t.Fatalf("want cell 0 failure reported first, got %v", err)
	}
}

// TestSweepProgressEvents checks every cell produces exactly one event and
// Done counts are a permutation-free 1..N sequence.
func TestSweepProgressEvents(t *testing.T) {
	var events []CellEvent
	s := &Sweep{Workers: 4, Progress: func(ev CellEvent) { events = append(events, ev) }}
	cells := make([]Cell, 10)
	for i := range cells {
		cells[i] = Cell{Key: fmt.Sprintf("c%d", i), Run: func() {}}
	}
	if err := s.Run(cells); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(cells) {
		t.Fatalf("got %d events for %d cells", len(events), len(cells))
	}
	seen := make(map[int]bool)
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != len(cells) {
			t.Errorf("event %d: Done=%d Total=%d", i, ev.Done, ev.Total)
		}
		if seen[ev.Index] {
			t.Errorf("cell %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
	}
}

// TestArtifactSharing checks the memoization layer policy by policy: two
// P-OPT builds share one merged transpose, two T-OPT builds in a fresh cache
// share one, and a T-OPT build on the P-OPT cache's (adjacency, line width)
// reuses its entry rather than adding one. Every cached transpose is
// bit-identical to a fresh build, and each policy instance stays private.
func TestArtifactSharing(t *testing.T) {
	g := TinyConfig().Suite()[0]
	w1 := kernels.NewPageRank(g)
	w2 := kernels.NewPageRank(g)
	nv := g.NumVertices()

	// Counts one cache's merged transposes and checks each against a fresh
	// build, so a bypassed cache shows as a count of zero.
	check := func(c Config, what string) {
		t.Helper()
		if got := len(c.arts.lrs); got != 1 { //lint:allow sharefreeze (single-threaded assert)
			t.Fatalf("%s created %d merged transposes, want 1", what, got)
		}
		//lint:allow sharefreeze (single-threaded assert)
		for k, e := range c.arts.lrs { //lint:ordered (independent per-key comparisons)
			if core.BuildLineRefs(k.adj, k.epl).Checksum() != e.lr.Checksum() { //lint:allow sharefreeze
				t.Fatalf("%s: cached merged transpose diverges from a fresh build", what)
			}
		}
	}

	cp := TinyConfig().withArtifacts()
	p1 := cp.buildPOPT(w1.RefAdj, nv, core.InterIntra, 8, w1.Irregular...)
	p2 := cp.buildPOPT(w2.RefAdj, nv, core.InterIntra, 8, w2.Irregular...)
	if p1 == p2 {
		t.Fatal("P-OPT instances must be per-cell, not shared")
	}
	check(cp, "two same-key P-OPT builds")

	ct := TinyConfig().withArtifacts()
	t1 := ct.buildTOPT(w1.RefAdj, w1.Irregular...)
	t2 := ct.buildTOPT(w2.RefAdj, w2.Irregular...)
	if t1 == t2 {
		t.Fatal("T-OPT instances must be per-cell, not shared")
	}
	check(ct, "two same-key T-OPT builds")

	cp.buildTOPT(w1.RefAdj, w1.Irregular...)
	check(cp, "P-OPT and T-OPT builds on one (adjacency, line width)")
}

// TestSweepSharedInputsImmutable hashes every shared artifact before and
// after a full parallel experiment: no cell may write through the shared
// suite graphs or merged transposes.
func TestSweepSharedInputsImmutable(t *testing.T) {
	c := TinyConfig()
	c.Workers = runtime.GOMAXPROCS(0)
	suite := c.Suite()
	pre := make([]uint64, len(suite))
	for i, g := range suite {
		pre[i] = g.Checksum()
	}
	// Pre-build every artifact the sweep will use, hash them, then run a
	// parallel P-OPT + T-OPT grid against the same cache.
	arts := newArtifacts()
	for _, g := range suite {
		w := kernels.NewPageRank(g)
		arts.lineRefs(lrKey{adj: w.RefAdj, epl: w.Irregular[0].ElemsPerLine()})
	}
	lrSums := make(map[lrKey]uint64)
	//lint:allow sharefreeze (single-threaded before the sweep)
	for k, e := range arts.lrs { //lint:ordered (checksums keyed, order-independent)
		lrSums[k] = e.lr.Checksum() //lint:allow sharefreeze
	}

	cArt := c
	cArt.arts = arts
	sweepGrid(cArt, "immut", suite, []Setup{POPTSetup(core.InterIntra, 8, true), TOPTSetup()})

	for i, g := range suite {
		if g.Checksum() != pre[i] {
			t.Fatalf("suite graph %s mutated by sweep", g.Name)
		}
	}
	//lint:allow sharefreeze (single-threaded after the sweep joined)
	for k, e := range arts.lrs { //lint:ordered (checksums keyed, order-independent)
		if e.lr.Checksum() != lrSums[k] { //lint:allow sharefreeze
			t.Fatal("shared merged transpose mutated by sweep")
		}
	}
}

// TestSuiteMemoized checks graph.Suite returns the same immutable graph
// pointers on every call, and that the returned slice itself is fresh.
func TestSuiteMemoized(t *testing.T) {
	a := graph.Suite(graph.ScaleTiny, 42)
	b := graph.Suite(graph.ScaleTiny, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("suite graph %d rebuilt instead of memoized", i)
		}
	}
	a[0] = nil
	if c := graph.Suite(graph.ScaleTiny, 42); c[0] == nil {
		t.Fatal("caller writes alias the cached suite slice")
	}
}

// BenchmarkSweep measures one full fig2 sweep at tiny scale, serial vs all
// cores; the recorded numbers live in BENCH_sweep.json.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("fig2-j%d", workers), func(b *testing.B) {
			cfg := TinyConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				Fig2(cfg)
			}
		})
	}
}
