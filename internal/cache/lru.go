package cache

import (
	"math/bits"
	"math/rand"

	"popt/internal/mem"
)

// LRU is true least-recently-used replacement, the paper's simple baseline.
type LRU struct {
	g     Geometry
	clock uint64
	ts    []uint64 // per line, last-touch time
}

// NewLRU returns an LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// Bind implements Policy.
func (p *LRU) Bind(g Geometry) {
	p.g = g
	p.ts = make([]uint64, g.Sets*g.Ways)
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.ts[set*p.g.Ways+way] = p.clock
}

// OnHit implements Policy.
func (p *LRU) OnHit(set, way int, _ mem.Access) { p.touch(set, way) }

// OnFill implements Policy.
func (p *LRU) OnFill(set, way int, _ mem.Access) { p.touch(set, way) }

// OnEvict implements Policy.
func (p *LRU) OnEvict(set, way int) {}

// Victim implements Policy: the stalest demand way, the lowest one on a
// tie (after Reserve re-binds, every stamp is zero). The minimum is taken
// branch-free first and then located: stamps are unordered, so a
// compare-and-branch scan mispredicts on nearly every eviction.
//
//popt:hot
func (p *LRU) Victim(set int, _ []uint64, _ mem.Access) int {
	base := set * p.g.Ways
	ts := p.ts[base+p.g.ReservedWays : base+p.g.Ways]
	oldest := ts[0]
	for _, t := range ts[1:] {
		oldest = min(oldest, t)
	}
	for w, t := range ts {
		if t == oldest {
			return p.g.ReservedWays + w
		}
	}
	return p.g.ReservedWays
}

// Random evicts a uniformly random way; a sanity baseline for tests.
type Random struct {
	g   Geometry
	rng *rand.Rand
}

// NewRandom returns a Random policy with a fixed seed for reproducibility.
func NewRandom(seed int64) *Random { return &Random{rng: rand.New(rand.NewSource(seed))} }

// Name implements Policy.
func (p *Random) Name() string { return "Random" }

// Bind implements Policy.
func (p *Random) Bind(g Geometry) { p.g = g }

// OnHit implements Policy.
func (p *Random) OnHit(int, int, mem.Access) {}

// OnFill implements Policy.
func (p *Random) OnFill(int, int, mem.Access) {}

// OnEvict implements Policy.
func (p *Random) OnEvict(int, int) {}

// Victim implements Policy.
func (p *Random) Victim(int, []uint64, mem.Access) int {
	return p.g.ReservedWays + p.rng.Intn(p.g.Ways-p.g.ReservedWays)
}

// BitPLRU is the bit-pseudo-LRU policy Table I assigns to L1 and L2: one
// MRU bit per way; a touch sets the way's bit, and when the last zero bit
// would disappear all other bits reset. The victim is the first way with a
// zero bit.
//
// The MRU bits live in one uint64 per set, so a touch is a mask-or plus a
// saturation compare and Victim is a single TrailingZeros64 — the same
// bitmask datapath the Level uses for its valid/dirty state. Since L1 and
// L2 run this policy on every access, the O(ways) bit walk this replaces
// was on the hierarchy's hottest path.
type BitPLRU struct {
	g   Geometry
	mru []uint64 // per set; bit w set = way w touched since the last reset
	// demand masks ways [ReservedWays, Ways), the ways the MRU walk covers.
	demand uint64
}

// NewBitPLRU returns a Bit-PLRU policy.
func NewBitPLRU() *BitPLRU { return &BitPLRU{} }

// Name implements Policy.
func (p *BitPLRU) Name() string { return "Bit-PLRU" }

// Bind implements Policy.
func (p *BitPLRU) Bind(g Geometry) {
	if g.Ways > 64 {
		panic("cache: Bit-PLRU bitmask datapath supports at most 64 ways")
	}
	p.g = g
	p.mru = make([]uint64, g.Sets)
	p.demand = lowWays(g.Ways) &^ lowWays(g.ReservedWays)
}

//popt:hot
func (p *BitPLRU) touch(set, way int) {
	m := p.mru[set] | 1<<uint(way)
	if m&p.demand == p.demand {
		// The last zero bit disappeared: reset every demand way but this
		// one (reserved-way bits, never consulted, are left as-is).
		m = (m &^ p.demand) | 1<<uint(way)
	}
	p.mru[set] = m
}

// OnHit implements Policy.
//
//popt:hot
func (p *BitPLRU) OnHit(set, way int, _ mem.Access) { p.touch(set, way) }

// OnFill implements Policy.
//
//popt:hot
func (p *BitPLRU) OnFill(set, way int, _ mem.Access) { p.touch(set, way) }

// OnEvict implements Policy.
func (p *BitPLRU) OnEvict(int, int) {}

// Victim implements Policy: the lowest demand way whose MRU bit is clear
// (the touch saturation rule guarantees one exists; the fallback covers a
// never-touched set only).
//
//popt:hot
func (p *BitPLRU) Victim(set int, _ []uint64, _ mem.Access) int {
	if free := ^p.mru[set] & p.demand; free != 0 {
		return bits.TrailingZeros64(free)
	}
	return p.g.ReservedWays
}
