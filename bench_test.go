// Package popt_test holds the top-level benchmark harness: one testing.B
// target per paper table/figure (running the full experiment at tiny
// scale; use cmd/poptbench for the paper-scale runs), micro-benchmarks for
// the hot operations, and the ablation benches DESIGN.md calls out.
package popt_test

import (
	"fmt"
	"testing"

	"popt/internal/analysis"
	"popt/internal/bench"
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	c := bench.TinyConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(c)
		if len(rep.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// One bench per paper table and figure.
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkBuildMatrix measures Rereference Matrix preprocessing (the
// Table IV quantity) per encoding.
func BenchmarkBuildMatrix(b *testing.B) {
	g := graph.Uniform(1<<15, 8<<15, 3)
	for _, k := range []core.Kind{core.InterOnly, core.InterIntra, core.SingleEpoch} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.BuildMatrix(&g.Out, g.NumVertices(), 16, k, 8)
			}
			bytesPerRun := core.BuildMatrix(&g.Out, g.NumVertices(), 16, k, 8).TotalBytes()
			b.ReportMetric(float64(bytesPerRun), "matrix-bytes")
		})
	}
}

// BenchmarkBuildLineRefs measures T-OPT's merged-transpose build (the
// core.linerefs layer) on the default-scale DBP input at the 4 B
// (16 vertices per line) and 1-bit (512 per line) geometries, over the
// out-adjacency (pull kernels) and the in-adjacency (push kernels).
func BenchmarkBuildLineRefs(b *testing.B) {
	g := graph.PowerLaw(1<<17, 7, 2.0, 42)
	for _, dir := range []struct {
		name string
		ref  *graph.Adj
	}{{"out", &g.Out}, {"in", &g.In}} {
		for _, epl := range []int{16, 512} {
			b.Run(fmt.Sprintf("%s/epl=%d", dir.name, epl), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.BuildLineRefs(dir.ref, epl)
				}
			})
		}
	}
}

// BenchmarkNextRef measures the Algorithm 2 lookup (the per-way work of
// the next-ref engine).
func BenchmarkNextRef(b *testing.B) {
	g := graph.Uniform(1<<15, 8<<15, 3)
	m := core.BuildMatrix(&g.Out, g.NumVertices(), 16, core.InterIntra, 8)
	n := graph.V(g.NumVertices())
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.NextRef(i%m.NumLines, graph.V(i)%n)
	}
	_ = sink
}

// BenchmarkHierarchyAccess measures raw simulator throughput per policy.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, mk := range []struct {
		name string
		pol  func() cache.Policy
	}{
		{"LRU", func() cache.Policy { return cache.NewLRU() }},
		{"DRRIP", func() cache.Policy { return cache.NewDRRIP(1) }},
		{"SHiP-PC", func() cache.Policy { return cache.NewSHiPPC() }},
		{"Hawkeye", func() cache.Policy { return cache.NewHawkeye() }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			h := cache.NewHierarchy(cache.Scaled(mk.pol))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Access(mem.Access{Addr: uint64(i*577) % (1 << 24) * 64, PC: uint16(i % 8)})
			}
		})
	}
}

// BenchmarkPageRankSimulation measures end-to-end simulated kernel
// throughput (accesses per second) under DRRIP and P-OPT.
func BenchmarkPageRankSimulation(b *testing.B) {
	g := graph.Uniform(1<<14, 8<<14, 5)
	run := func(b *testing.B, s bench.Setup) {
		c := bench.TinyConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := kernels.NewPageRank(g)
			res := bench.RunWorkload(c, w, s)
			b.ReportMetric(float64(res.H.L1.Stats.Accesses), "accesses/op")
		}
	}
	b.Run("DRRIP", func(b *testing.B) { run(b, bench.DRRIPSetup()) })
	b.Run("P-OPT", func(b *testing.B) { run(b, bench.POPTSetup(core.InterIntra, 8, true)) })
	b.Run("T-OPT", func(b *testing.B) { run(b, bench.TOPTSetup()) })
}

// BenchmarkAblationTieBreak isolates the DRRIP tie-breaker (Section V-C):
// P-OPT with and without it, at the tie-heavy 4-bit quantization.
func BenchmarkAblationTieBreak(b *testing.B) {
	g := graph.Uniform(1<<14, 8<<14, 5)
	run := func(b *testing.B, tieFirst bool) {
		c := bench.TinyConfig()
		s := bench.Setup{Name: "P-OPT", Make: func(_ bench.Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
			p := core.BuildPOPT(w.RefAdj, w.G.NumVertices(), core.InterIntra, 4, w.Irregular...)
			p.TieFirst = tieFirst
			return p, p, p.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
		}}
		for i := 0; i < b.N; i++ {
			res := bench.RunWorkload(c, kernels.NewPageRank(g), s)
			b.ReportMetric(float64(res.H.LLC.Stats.Misses), "LLCmisses")
			b.ReportMetric(100*res.TieRate, "tie%")
		}
	}
	b.Run("drrip-tiebreak", func(b *testing.B) { run(b, false) })
	b.Run("first-candidate", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationReservedWays isolates P-OPT's metadata capacity cost:
// identical policy with and without charging reserved ways.
func BenchmarkAblationReservedWays(b *testing.B) {
	g := graph.Uniform(1<<14, 8<<14, 5)
	for _, charge := range []bool{true, false} {
		name := "charged"
		if !charge {
			name = "free-metadata"
		}
		b.Run(name, func(b *testing.B) {
			c := bench.TinyConfig()
			for i := 0; i < b.N; i++ {
				res := bench.RunWorkload(c, kernels.NewPageRank(g), bench.POPTSetup(core.InterIntra, 8, charge))
				b.ReportMetric(float64(res.H.LLC.Stats.Misses), "LLCmisses")
			}
		})
	}
}

// BenchmarkGenerators measures suite generation cost per graph kind.
func BenchmarkGenerators(b *testing.B) {
	gens := []struct {
		name string
		gen  func(i int) *graph.Graph
	}{
		{"Kron", func(i int) *graph.Graph { return graph.Kron(13, 8, int64(i)) }},
		{"Uniform", func(i int) *graph.Graph { return graph.Uniform(1<<13, 8<<13, int64(i)) }},
		{"PowerLaw", func(i int) *graph.Graph { return graph.PowerLaw(1<<13, 8, 2.0, int64(i)) }},
		{"Community", func(i int) *graph.Graph { return graph.Community(1<<13, 8, 256, 0.85, int64(i)) }},
		{"Mesh", func(i int) *graph.Graph { return graph.Mesh(90, 91) }},
	}
	for _, ge := range gens {
		b.Run(ge.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := ge.gen(i); g.NumVertices() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkDBGReorder measures the GRASP prerequisite preprocessing.
func BenchmarkDBGReorder(b *testing.B) {
	g := graph.Kron(13, 8, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := graph.DBG(g)
		if len(p) != g.NumVertices() {
			b.Fatal("bad permutation")
		}
	}
}

// Example of using the harness programmatically (compiles as a test).
func ExampleByID() {
	e, ok := bench.ByID("table2")
	fmt.Println(e.ID, ok)
	// Output: table2 true
}

// BenchmarkExtensionPrefetch measures the transpose-guided prefetcher
// (future-work extension) against plain DRRIP.
func BenchmarkExtensionPrefetch(b *testing.B) {
	// The irregular working set must exceed the scaled LLC for prefetching
	// to have demand misses to cover.
	g := graph.Uniform(1<<16, 8<<16, 7)
	run := func(b *testing.B, depth int) {
		for i := 0; i < b.N; i++ {
			w := kernels.NewPageRank(g)
			var pol cache.Policy = cache.NewDRRIP(1)
			cfg := cache.Scaled(func() cache.Policy { return pol })
			h := cache.NewHierarchy(cfg)
			var hook core.VertexIndexed
			if depth > 0 {
				hook = core.NewTransposePrefetcher(h, &w.G.In, w.Irregular[0], depth)
			}
			w.Run(kernels.NewRunner(h, hook))
			b.ReportMetric(float64(h.LLC.Stats.Misses), "LLCmisses")
			b.ReportMetric(float64(h.DRAMReads), "DRAMreads")
		}
	}
	b.Run("no-prefetch", func(b *testing.B) { run(b, 0) })
	b.Run("depth-2", func(b *testing.B) { run(b, 2) })
	b.Run("depth-8", func(b *testing.B) { run(b, 8) })
}

// BenchmarkStackDistances measures the locality-analysis substrate.
func BenchmarkStackDistances(b *testing.B) {
	g := graph.Uniform(1<<13, 8<<13, 9)
	trace := analysis.Capture(kernels.NewPageRank(g), true)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := analysis.StackDistances(trace)
		if len(d) != len(trace) {
			b.Fatal("length mismatch")
		}
	}
	b.ReportMetric(float64(len(trace)), "trace-len")
}

// BenchmarkBeladyMIN measures the offline-optimal gold standard.
func BenchmarkBeladyMIN(b *testing.B) {
	g := graph.Uniform(1<<12, 8<<12, 11)
	trace := analysis.Capture(kernels.NewPageRank(g), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := cache.NewLevel("MIN", 64*mem.LineSize, 16, cache.NewBeladyMIN(trace))
		stats := cache.SimulateTrace(l, trace)
		b.ReportMetric(float64(stats.Misses), "misses")
	}
}
