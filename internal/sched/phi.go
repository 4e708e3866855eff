package sched

import (
	"container/list"

	"popt/internal/cache"
	"popt/internal/mem"
)

// PHIBuffer models PHI (Mukkara et al., MICRO 2019): commutative scatter
// updates are aggregated in a private-cache-sized coalescing buffer; only
// when an aggregated line is displaced does a single memory update issue.
// Power-law graphs repeatedly update hub vertices, so most updates coalesce
// in-buffer; uniform-degree graphs see little aggregation and PHI
// degenerates toward plain scatter (the Fig. 14 observation).
//
// The buffer installs as a trace.Sim Filter: writes to the target array are
// absorbed; evicted aggregates issue as writes into the hierarchy.
type PHIBuffer struct {
	h      *cache.Hierarchy
	target *mem.Array
	cap    int
	lru    *list.List               // of uint64 line addresses, front = MRU
	index  map[uint64]*list.Element // line addr -> lru node

	// Absorbed counts updates coalesced in-buffer; Spills counts
	// aggregated lines written through to the hierarchy.
	Absorbed uint64
	Spills   uint64
}

// NewPHIBuffer builds a coalescing buffer of capLines cache lines in front
// of h, intercepting writes to target.
func NewPHIBuffer(h *cache.Hierarchy, target *mem.Array, capLines int) *PHIBuffer {
	return &PHIBuffer{h: h, target: target, cap: capLines, lru: list.New(), index: make(map[uint64]*list.Element)}
}

// Filter implements the trace.Sim filter contract: it returns true
// when the access was absorbed by the buffer.
func (p *PHIBuffer) Filter(acc mem.Access) bool {
	if !acc.Write || !p.target.Contains(acc.Addr) {
		return false
	}
	la := acc.LineAddr()
	if e, ok := p.index[la]; ok {
		p.lru.MoveToFront(e)
		p.Absorbed++
		return true
	}
	p.index[la] = p.lru.PushFront(la)
	if p.lru.Len() > p.cap {
		victim := p.lru.Back()
		p.lru.Remove(victim)
		va := victim.Value.(uint64)
		delete(p.index, va)
		p.spill(va)
	}
	return true
}

// spill writes an aggregated line's update through the hierarchy.
func (p *PHIBuffer) spill(lineAddr uint64) {
	p.Spills++
	p.h.Access(mem.Access{Addr: lineAddr, Write: true, PC: 0x7F})
}

// Flush drains every pending aggregate (end of phase).
func (p *PHIBuffer) Flush() {
	for e := p.lru.Front(); e != nil; e = e.Next() {
		p.spill(e.Value.(uint64))
	}
	p.lru.Init()
	p.index = make(map[uint64]*list.Element)
}

// CoalesceRate returns the fraction of updates absorbed without a spill.
func (p *PHIBuffer) CoalesceRate() float64 {
	total := p.Absorbed + p.Spills
	if total == 0 {
		return 0
	}
	return float64(p.Absorbed) / float64(total)
}
