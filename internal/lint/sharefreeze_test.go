package lint

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The sharefreeze fixtures are split by contract: each package seeds the
// defects of one contract and is otherwise clean under the whole analyzer.

func TestShareFreeze(t *testing.T) {
	RunTest(t, "testdata", NewShareFreeze(), "freeze")
}

// TestShareFreezeRegistryConsistency pins the cross-check that keeps the
// central registry and the //popt:frozen declarations in sync.
func TestShareFreezeRegistryConsistency(t *testing.T) {
	RunTest(t, "testdata", NewShareFreeze("freezereg.MissReg"), "freezereg")
}

func TestLockGuard(t *testing.T) {
	RunTest(t, "testdata", NewShareFreeze(), "guard")
}

func TestLoopCapture(t *testing.T) {
	RunTest(t, "testdata", NewShareFreeze(), "capture")
}

// TestShareFreezeRealTree runs the analyzer over the whole module: it must
// find nothing, and its walk must resolve every frozen type and guarded
// field of the tree and visit every goroutine launched in a loop, so an
// annotation or a launch site the walk silently skips fails here.
func TestShareFreezeRealTree(t *testing.T) {
	pkgs, err := NewLoader(filepath.Join("..", "..")).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	rec := &shareRecord{frozen: map[string]bool{}, guarded: map[string]string{}, loopGo: map[string]string{}}
	findings, err := RunAnalyzers(pkgs, []*Analyzer{newShareFreeze(nil, rec)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on the real tree: %s", f)
	}

	var frozen []string
	for name := range rec.frozen { //lint:ordered
		frozen = append(frozen, name)
	}
	sort.Strings(frozen)
	wantFrozen := append([]string{"popt/internal/graph.adjCompact"}, FrozenTypes...)
	sort.Strings(wantFrozen)
	if !reflect.DeepEqual(frozen, wantFrozen) {
		t.Errorf("frozen types resolved:\n got %v\nwant %v", frozen, wantFrozen)
	}

	wantGuarded := map[string]string{
		"bench.Sweep.done":     "mu",
		"bench.artifacts.lrs":  "mu",
		"bench.lrEntry.lr":     "once",
		"corpus.Store.open":    "mu",
		"corpus.Store.entries": "mu",
		"graph.suiteCache.m":   "Mutex",
	}
	if !reflect.DeepEqual(rec.guarded, wantGuarded) {
		t.Errorf("guarded fields resolved:\n got %v\nwant %v", rec.guarded, wantGuarded)
	}

	loopGo := map[string]bool{}
	for fn, file := range rec.loopGo { //lint:ordered
		if !strings.HasSuffix(file, "_test.go") {
			loopGo[fn] = true
		}
	}
	wantLoopGo := map[string]bool{
		"(*popt/internal/bench.Sweep).Run":        true,
		"popt/internal/core.eachWorker":           true,
		"popt/internal/core.fillEntries":          true,
		"popt/internal/graph.genEdges":            true,
		"popt/internal/graph.parallelRanges":      true,
		"(*popt/internal/trace.Reader).ReplayLLC": true,
	}
	if !reflect.DeepEqual(loopGo, wantLoopGo) {
		t.Errorf("loop-launched goroutines walked outside tests:\n got %v\nwant %v", loopGo, wantLoopGo)
	}
}
