package graph

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
)

// The experiment harness asks for the same five-graph suite over and over
// — every fig2..fig16 driver starts from Suite(scale, seed) — and graphs
// are immutable once FromEdges returns. Building each (scale, seed) suite
// once and sharing the *Graph pointers across experiments (and across the
// concurrent cells of a parallel sweep) removes the single largest
// redundant cost of a `poptbench all` run. Nothing is ever invalidated:
// a cached suite is exactly as valid as a rebuilt one, byte for byte.

var suiteCache struct {
	sync.Mutex
	m map[suiteKey][]*Graph //popt:guardedby Mutex
}

type suiteKey struct {
	scale  Scale
	seed   int64
	layout Layout // resolved: LayoutPlain or LayoutCompact, never LayoutAuto
}

// cachedSuiteLayout returns the memoized suite for (scale, seed, resolved
// layout), building it on first use. The build happens under the lock so
// concurrent first callers do not duplicate the work; afterwards every
// caller gets the same immutable graphs. A compact suite is built graph
// by graph — each plain graph is encoded and dropped before the next
// generates — so peak residency during construction is one plain graph
// plus the compact results, not a whole retained plain suite.
func cachedSuiteLayout(s Scale, seed int64, lay Layout) []*Graph {
	key := suiteKey{s, seed, lay.Resolve(s)}
	suiteCache.Lock()
	defer suiteCache.Unlock()
	if g, ok := suiteCache.m[key]; ok {
		return g
	}
	if suiteCache.m == nil {
		suiteCache.m = make(map[suiteKey][]*Graph)
	}
	g := buildSuite(s, seed, key.layout)
	suiteCache.m[key] = g
	return g
}

// Checksum returns an FNV-1a hash over both adjacency directions (offsets
// and neighbor arrays). Graphs are immutable after construction; tests
// hash a suite graph before and after a concurrent sweep to prove no cell
// wrote through the shared pointers. The hash is layout-invariant — a
// compact graph hashes its logical offsets and neighbor values in the
// same order and width the plain arrays serialize to — so corpus stream
// keys (which embed the checksum) match across layouts and a warm corpus
// recorded under either layout serves both.
func (g *Graph) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range []*Adj{&g.Out, &g.In} {
		if a.c == nil {
			for _, x := range a.OA {
				binary.LittleEndian.PutUint64(buf[:], x)
				h.Write(buf[:])
			}
			for _, v := range a.NA {
				binary.LittleEndian.PutUint32(buf[:4], uint32(v))
				h.Write(buf[:4])
			}
			continue
		}
		n := a.N()
		it := a.IterFrom(0)
		for v := 0; v < n; v++ {
			_, start := it.Next()
			binary.LittleEndian.PutUint64(buf[:], start)
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(a.M()))
		h.Write(buf[:])
		it = a.IterFrom(0)
		for v := 0; v < n; v++ {
			ns, _ := it.Next()
			for _, u := range ns {
				binary.LittleEndian.PutUint32(buf[:4], uint32(u))
				h.Write(buf[:4])
			}
		}
	}
	return h.Sum64()
}
