package cache

import (
	"math/rand"

	"popt/internal/mem"
)

// DIP is Dynamic Insertion Policy (Qureshi et al., ISCA 2007), the
// adaptive-insertion ancestor of DRRIP that the paper cites for shared
// cache management: set dueling between traditional LRU insertion and BIP
// (insert at LRU position, promoting to MRU with probability 1/32), which
// protects a fraction of a thrashing working set.
type DIP struct {
	g       Geometry
	clock   uint64
	ts      []uint64
	rng     *rand.Rand
	psel    int
	pselMax int
	pitch   int
}

// NewDIP returns a DIP with a 10-bit PSEL and 1-in-32 leader sets.
func NewDIP(seed int64) *DIP {
	return &DIP{rng: rand.New(rand.NewSource(seed)), psel: 512, pselMax: 1023, pitch: 32}
}

// Name implements Policy.
func (p *DIP) Name() string { return "DIP" }

// Bind implements Policy.
func (p *DIP) Bind(g Geometry) {
	p.g = g
	p.ts = make([]uint64, g.Sets*g.Ways)
}

// leader classifies a set: +1 LRU leader, -1 BIP leader, 0 follower.
func (p *DIP) leader(set int) int {
	switch set % p.pitch {
	case 0:
		return 1
	case 1:
		return -1
	}
	return 0
}

func (p *DIP) useBIP(set int) bool {
	switch p.leader(set) {
	case 1:
		return false
	case -1:
		return true
	}
	return p.psel > p.pselMax/2
}

// OnHit implements Policy: standard MRU promotion.
func (p *DIP) OnHit(set, way int, _ mem.Access) {
	p.clock++
	p.ts[set*p.g.Ways+way] = p.clock
}

// OnFill implements Policy: a fill is a miss — leader misses steer PSEL —
// and the insertion position depends on the winning policy.
func (p *DIP) OnFill(set, way int, _ mem.Access) {
	switch p.leader(set) {
	case 1: // LRU leader missed
		if p.psel < p.pselMax {
			p.psel++
		}
	case -1: // BIP leader missed
		if p.psel > 0 {
			p.psel--
		}
	}
	p.clock++
	idx := set*p.g.Ways + way
	if p.useBIP(set) && p.rng.Intn(32) != 0 {
		// Insert at LRU position: pretend it is the oldest line.
		p.ts[idx] = 0
	} else {
		p.ts[idx] = p.clock
	}
}

// OnEvict implements Policy.
func (p *DIP) OnEvict(int, int) {}

// Victim implements Policy: oldest timestamp.
func (p *DIP) Victim(set int, _ []uint64, _ mem.Access) int {
	base := set * p.g.Ways
	best, bestTS := p.g.ReservedWays, p.ts[base+p.g.ReservedWays]
	for w := p.g.ReservedWays + 1; w < p.g.Ways; w++ {
		if p.ts[base+w] < bestTS {
			best, bestTS = w, p.ts[base+w]
		}
	}
	return best
}
