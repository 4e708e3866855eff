package core

import (
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

func prefetchHierarchy(pol func() cache.Policy) *cache.Hierarchy {
	return cache.NewHierarchy(cache.Config{
		L1Size: 1 << 10, L1Ways: 4,
		L2Size: 4 << 10, L2Ways: 4,
		LLCSize: 16 << 10, LLCWays: 16,
		LLCPolicy: pol,
	})
}

func TestPrefetcherIssuesTransposeTargets(t *testing.T) {
	g := fig1Graph()
	h := prefetchHierarchy(func() cache.Policy { return cache.NewLRU() })
	sp := mem.NewSpace()
	src := sp.AllocBytes("srcData", 5, 64, true) // one vertex per line
	p := NewTransposePrefetcher(h, &g.In, src, 1)

	// Processing D0 with depth 1 prefetches the in-neighbors of D1: S2, S3.
	p.UpdateIndex(0)
	if h.PrefetchIssued != 2 {
		t.Fatalf("issued %d prefetches, want 2 (in-neighbors of D1)", h.PrefetchIssued)
	}
	if _, _, ok := h.LLC.Lookup(mem.Access{Addr: src.Addr(2)}.LineAddr()); !ok {
		t.Error("srcData[S2] not prefetched into LLC")
	}
	if _, _, ok := h.LLC.Lookup(mem.Access{Addr: src.Addr(3)}.LineAddr()); !ok {
		t.Error("srcData[S3] not prefetched into LLC")
	}

	// Advance to D1: prefetch in-neighbors of D2 (S0, S4).
	p.UpdateIndex(1)
	if h.PrefetchIssued != 4 {
		t.Fatalf("issued %d prefetches after second step, want 4", h.PrefetchIssued)
	}
}

func TestPrefetcherSkipsResidentLines(t *testing.T) {
	g := fig1Graph()
	h := prefetchHierarchy(func() cache.Policy { return cache.NewLRU() })
	sp := mem.NewSpace()
	src := sp.AllocBytes("srcData", 5, 64, true)
	p := NewTransposePrefetcher(h, &g.In, src, 1)
	p.UpdateIndex(0)
	fills := h.PrefetchFills
	p.ResetEpoch()
	p.UpdateIndex(0) // same targets, now resident
	if h.PrefetchFills != fills {
		t.Errorf("resident lines refetched: fills %d -> %d", fills, h.PrefetchFills)
	}
	if h.PrefetchIssued <= fills {
		t.Error("issued counter should still advance")
	}
}

func TestPrefetcherCoversSkippedVertices(t *testing.T) {
	// Jumping the outer loop from D0 to D3: targets D1-D3 are already in
	// the past (useless to prefetch), so only D4 is fetched; nothing is
	// fetched twice and nothing in the live window is missed.
	g := graph.Uniform(64, 512, 3)
	h := prefetchHierarchy(func() cache.Policy { return cache.NewLRU() })
	sp := mem.NewSpace()
	src := sp.AllocBytes("srcData", 64, 4, true)
	p := NewTransposePrefetcher(h, &g.In, src, 1)
	p.UpdateIndex(0) // window {D1}
	p.UpdateIndex(3) // window {D4}; D1-D3 already passed
	want := uint64(g.In.Degree(1) + g.In.Degree(4))
	if h.PrefetchIssued != want {
		t.Errorf("issued = %d, want %d (neighbors of D1 and D4)", h.PrefetchIssued, want)
	}
	// Sequential stepping covers each target exactly once.
	h2 := prefetchHierarchy(func() cache.Policy { return cache.NewLRU() })
	p2 := NewTransposePrefetcher(h2, &g.In, src, 2)
	for v := graph.V(0); v < 8; v++ {
		p2.UpdateIndex(v)
	}
	var wantSeq uint64
	for d := graph.V(2); d <= 9; d++ {
		wantSeq += uint64(g.In.Degree(d))
	}
	if h2.PrefetchIssued != wantSeq {
		t.Errorf("sequential issued = %d, want %d (neighbors of D2..D9 once each)", h2.PrefetchIssued, wantSeq)
	}
}

func TestCombineHooksFansOut(t *testing.T) {
	g := graph.Uniform(512, 4096, 5)
	sp := mem.NewSpace()
	src := sp.AllocBytes("srcData", 512, 4, true)
	popt := BuildPOPT(&g.Out, 512, InterIntra, 8, src)
	h := prefetchHierarchy(func() cache.Policy { return cache.NewLRU() })
	pref := NewTransposePrefetcher(h, &g.In, src, 1)
	combo := CombineHooks(popt, pref)
	combo.UpdateIndex(10)
	if h.PrefetchIssued == 0 {
		t.Error("prefetcher did not receive the update")
	}
	// P-OPT's epoch state also advanced: crossing an epoch boundary later
	// must stream (epoch of 10 is 0 here, so force a crossing).
	combo.UpdateIndex(graph.V(popt.matrices[0].EpochSize))
	if popt.EpochStreams == 0 {
		t.Error("P-OPT did not receive the update")
	}
	// ResetEpoch must reach P-OPT through the combiner.
	before := popt.EpochStreams
	if er, ok := combo.(interface{ ResetEpoch() }); ok {
		er.ResetEpoch()
	} else {
		t.Fatal("combined hook lost ResetEpoch")
	}
	if popt.EpochStreams != before+1 {
		t.Error("ResetEpoch not forwarded")
	}
}
