package graph

import (
	"fmt"
	"runtime"
	"testing"
)

// Construction benchmarks in the style of cache's datapath_bench_test.go:
// fixed synthetic inputs, the measured loop doing exactly the operation
// named. CI uploads the output next to the datapath numbers so build-path
// regressions are visible per PR.

// BenchmarkFromEdges measures the phase-parallel CSR+CSC build on a
// 256 K-edge pseudo-random edge list (large enough to fork at
// GOMAXPROCS > 1, so the parallel phases are on the measured path).
func BenchmarkFromEdges(b *testing.B) {
	const n = 1 << 14
	edges := synthEdges(n, 1<<18, 42)
	b.SetBytes(int64(len(edges) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges("bench", n, edges)
	}
}

// BenchmarkFromEdgesSerial is BenchmarkFromEdges pinned to one worker:
// the before/after of the sort.Slice -> SortV and exact-size-NA changes,
// independent of available cores.
func BenchmarkFromEdgesSerial(b *testing.B) {
	const n = 1 << 14
	edges := synthEdges(n, 1<<18, 42)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	b.SetBytes(int64(len(edges) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromEdges("bench", n, edges)
	}
}

// BenchmarkKron measures end-to-end generation (chunked R-MAT edge draws
// plus the parallel build) at a size past one genChunk granule so the
// multi-stream layout is exercised.
func BenchmarkKron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Kron(19, 4, int64(i))
	}
}

// BenchmarkSortV measures the manual segment sort against the degree
// shapes the build sees: short power-law-ish segments re-sorted from a
// shuffled pool, plus the hub-line corner (one element before a long
// sorted run) that the partition depth budget keeps O(n log n).
func BenchmarkSortV(b *testing.B) {
	for _, segLen := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("seg=%d", segLen), func(b *testing.B) {
			src := synthEdges(1<<20, segLen, uint64(segLen))
			seg := make([]V, segLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range seg {
					seg[j] = src[j].Dst
				}
				SortV(seg)
			}
		})
	}
	b.Run("hub=1+96142", func(b *testing.B) {
		src := hubLine(96142)
		seg := make([]V, len(src))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(seg, src)
			SortV(seg)
		}
	})
}
