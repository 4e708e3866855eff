// Custom policy: the cache simulator's Policy interface is open — this
// example implements FIFO replacement from scratch, plugs it into the LLC
// next to the built-in policies, and races it on PageRank.
//
//	go run ./examples/custom-policy
package main

import (
	"fmt"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
)

// FIFO evicts in insertion order, ignoring hits entirely.
type FIFO struct {
	g    cache.Geometry
	next []int // per set, next way to replace (round robin over fills)
}

// Name implements cache.Policy.
func (p *FIFO) Name() string { return "FIFO" }

// Bind implements cache.Policy.
func (p *FIFO) Bind(g cache.Geometry) {
	p.g = g
	p.next = make([]int, g.Sets)
}

// OnHit implements cache.Policy; FIFO ignores hits.
func (p *FIFO) OnHit(set, way int, acc mem.Access) {}

// OnFill implements cache.Policy.
func (p *FIFO) OnFill(set, way int, acc mem.Access) {}

// OnEvict implements cache.Policy.
func (p *FIFO) OnEvict(set, way int) {}

// Victim implements cache.Policy: strict rotation over the usable ways.
func (p *FIFO) Victim(set int, tags []uint64, acc mem.Access) int {
	usable := p.g.Ways - p.g.ReservedWays
	w := p.g.ReservedWays + p.next[set]%usable
	p.next[set]++
	return w
}

func main() {
	g := graph.Kron(14, 8, 9)
	fmt.Println("input:", g)
	for _, pol := range []func() cache.Policy{
		func() cache.Policy { return &FIFO{} },
		func() cache.Policy { return cache.NewLRU() },
		func() cache.Policy { return cache.NewDRRIP(1) },
	} {
		w := kernels.NewPageRank(g)
		h := cache.NewHierarchy(cache.Scaled(pol))
		r := kernels.NewRunner(h, nil)
		w.Run(r)
		if err := w.Check(); err != nil {
			panic(err)
		}
		fmt.Printf("%-6s LLC miss rate %5.1f%%  MPKI %6.2f\n",
			h.LLC.Policy().Name(), 100*h.LLCMissRate(), r.Sim().MPKI())
	}
}
