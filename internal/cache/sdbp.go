package cache

import "popt/internal/mem"

// SDBP is Sampling Dead Block Prediction (Khan, Tian & Jiménez, MICRO
// 2010), one of the dead-block predictors the paper's related work covers
// (Section VIII: P-OPT identifies dead lines more accurately because it
// has next references rather than PC heuristics). A small set sampler
// observes which PCs' blocks die after their last touch; a skewed
// saturating-counter predictor then marks predicted-dead lines as
// preferred victims in the main cache.
type SDBP struct {
	g Geometry
	// Predictor: three skewed tables of 2-bit counters indexed by hashes
	// of the last-touch PC; predicted dead when the summed vote passes a
	// threshold.
	tables [3][]uint8
	// Per-line state in the main cache.
	lastPC []uint16
	dead   []bool
	// Sampler: a handful of sampled sets with their own LRU stacks and
	// last-touch PCs; an eviction of an untouched-since line trains
	// "dead", a hit trains "live".
	samplerSets  map[int]*sdbpSampler
	samplerPitch int
	// lru provides the baseline victim ordering among non-dead lines.
	lru *LRU
}

const (
	sdbpTableSize = 1 << 12
	sdbpThreshold = 8 // of max 9 (3 tables x 3)
)

type sdbpSampler struct {
	addrs []uint64
	pcs   []uint16
	ts    []uint64
	clock uint64
}

// NewSDBP returns an SDBP policy with 1-in-16 set sampling.
func NewSDBP() *SDBP { return &SDBP{samplerPitch: 16, lru: NewLRU()} }

// Name implements Policy.
func (p *SDBP) Name() string { return "SDBP" }

// Bind implements Policy.
func (p *SDBP) Bind(g Geometry) {
	p.g = g
	for i := range p.tables {
		if p.tables[i] == nil {
			p.tables[i] = make([]uint8, sdbpTableSize)
		}
	}
	p.lastPC = make([]uint16, g.Sets*g.Ways)
	p.dead = make([]bool, g.Sets*g.Ways)
	p.samplerSets = make(map[int]*sdbpSampler)
	p.lru.Bind(g)
}

func (p *SDBP) hash(pc uint16, t int) int {
	x := uint32(pc) * [3]uint32{0x9E37, 0x85EB, 0xC2B2}[t]
	return int(x>>4) % sdbpTableSize
}

func (p *SDBP) predictDead(pc uint16) bool {
	sum := 0
	for t := range p.tables {
		sum += int(p.tables[t][p.hash(pc, t)])
	}
	return sum >= sdbpThreshold
}

func (p *SDBP) train(pc uint16, dead bool) {
	for t := range p.tables {
		i := p.hash(pc, t)
		if dead {
			if p.tables[t][i] < 3 {
				p.tables[t][i]++
			}
		} else if p.tables[t][i] > 0 {
			p.tables[t][i]--
		}
	}
}

// sampler returns the sampler for a sampled set (nil otherwise).
func (p *SDBP) sampler(set int) *sdbpSampler {
	if set%p.samplerPitch != 0 {
		return nil
	}
	s := p.samplerSets[set]
	if s == nil {
		w := p.g.Ways
		s = &sdbpSampler{
			addrs: make([]uint64, w), pcs: make([]uint16, w),
			ts: make([]uint64, w),
		}
		p.samplerSets[set] = s
	}
	return s
}

// observe feeds the sampler: hits train "live" for the previous touch's
// PC; evictions of lines whose last touch was never followed train "dead".
func (p *SDBP) observe(set int, acc mem.Access, train func(pc uint16, dead bool)) {
	s := p.sampler(set)
	if s == nil {
		return
	}
	la := acc.LineAddr()
	s.clock++
	for w := range s.addrs {
		if s.addrs[w] == la {
			// Re-touch: the previous touch was not the last -> live.
			train(s.pcs[w], false)
			s.pcs[w] = acc.PC
			s.ts[w] = s.clock
			return
		}
	}
	// Miss in sampler: evict its LRU entry; its last touch was final.
	victim, oldest := 0, s.ts[0]
	for w := 1; w < len(s.addrs); w++ {
		if s.ts[w] < oldest {
			victim, oldest = w, s.ts[w]
		}
	}
	if s.addrs[victim] != 0 {
		train(s.pcs[victim], true)
	}
	s.addrs[victim] = la
	s.pcs[victim] = acc.PC
	s.ts[victim] = s.clock
}

// OnHit implements Policy.
func (p *SDBP) OnHit(set, way int, acc mem.Access) {
	p.observe(set, acc, p.train)
	idx := set*p.g.Ways + way
	p.lastPC[idx] = acc.PC
	p.dead[idx] = p.predictDead(acc.PC)
	p.lru.OnHit(set, way, acc)
}

// OnFill implements Policy.
func (p *SDBP) OnFill(set, way int, acc mem.Access) {
	p.observe(set, acc, p.train)
	idx := set*p.g.Ways + way
	p.lastPC[idx] = acc.PC
	p.dead[idx] = p.predictDead(acc.PC)
	p.lru.OnFill(set, way, acc)
}

// OnEvict implements Policy.
func (p *SDBP) OnEvict(set, way int) { p.lru.OnEvict(set, way) }

// Victim implements Policy: predicted-dead lines first, then LRU.
func (p *SDBP) Victim(set int, tags []uint64, acc mem.Access) int {
	base := set * p.g.Ways
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		if p.dead[base+w] {
			return w
		}
	}
	return p.lru.Victim(set, tags, acc)
}
