package cache

import (
	"math/rand"

	"popt/internal/mem"
)

// This file implements the RRIP family (Jaleel et al., ISCA 2010). DRRIP is
// the paper's representative high-performance baseline: server-class Intel
// parts ship a DRRIP variant, and the paper reports all headline numbers
// relative to it.

// rripBase holds RRPV state shared by SRRIP, BRRIP and DRRIP.
type rripBase struct {
	g    Geometry
	bits uint  // RRPV width (2 for the classic policy)
	max  uint8 // distant value = 2^bits - 1
	rrpv []uint8
}

func (p *rripBase) Bind(g Geometry) {
	p.g = g
	p.max = uint8(1<<p.bits - 1)
	p.rrpv = make([]uint8, g.Sets*g.Ways)
	for i := range p.rrpv {
		p.rrpv[i] = p.max
	}
}

// victim finds the first way at distant RRPV, aging the set until one
// exists.
//
//popt:hot
func (p *rripBase) victim(set int) int {
	base := set * p.g.Ways
	for {
		for w := p.g.ReservedWays; w < p.g.Ways; w++ {
			if p.rrpv[base+w] == p.max {
				return w
			}
		}
		for w := p.g.ReservedWays; w < p.g.Ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

func (p *rripBase) promote(set, way int) { p.rrpv[set*p.g.Ways+way] = 0 }

func (p *rripBase) insert(set, way int, v uint8) { p.rrpv[set*p.g.Ways+way] = v }

// SRRIP inserts at long re-reference interval (max-1) and promotes to 0 on
// hit, giving scan resistance.
type SRRIP struct{ rripBase }

// NewSRRIP returns a 2-bit SRRIP policy.
func NewSRRIP() *SRRIP {
	p := &SRRIP{}
	p.bits = 2
	return p
}

// Name implements Policy.
func (p *SRRIP) Name() string { return "SRRIP" }

// OnHit implements Policy.
func (p *SRRIP) OnHit(set, way int, _ mem.Access) { p.promote(set, way) }

// OnFill implements Policy.
func (p *SRRIP) OnFill(set, way int, _ mem.Access) { p.insert(set, way, p.max-1) }

// OnEvict implements Policy.
func (p *SRRIP) OnEvict(int, int) {}

// Victim implements Policy.
func (p *SRRIP) Victim(set int, _ []uint64, _ mem.Access) int { return p.victim(set) }

// BRRIP inserts at distant RRPV most of the time and long RRPV with
// probability 1/32, giving thrash resistance.
type BRRIP struct {
	rripBase
	rng *rand.Rand
}

// NewBRRIP returns a 2-bit BRRIP policy.
func NewBRRIP(seed int64) *BRRIP {
	p := &BRRIP{rng: rand.New(rand.NewSource(seed))}
	p.bits = 2
	return p
}

// Name implements Policy.
func (p *BRRIP) Name() string { return "BRRIP" }

// OnHit implements Policy.
func (p *BRRIP) OnHit(set, way int, _ mem.Access) { p.promote(set, way) }

// OnFill implements Policy.
func (p *BRRIP) OnFill(set, way int, _ mem.Access) {
	v := p.max
	if p.rng.Intn(32) == 0 {
		v = p.max - 1
	}
	p.insert(set, way, v)
}

// OnEvict implements Policy.
func (p *BRRIP) OnEvict(int, int) {}

// Victim implements Policy.
func (p *BRRIP) Victim(set int, _ []uint64, _ mem.Access) int { return p.victim(set) }

// DRRIP set-duels SRRIP against BRRIP: a handful of leader sets are pinned
// to each policy and a saturating PSEL counter steers follower sets to
// whichever leader is missing less.
type DRRIP struct {
	rripBase
	rng       *rand.Rand
	psel      int
	pselMax   int
	duelPitch int // every duelPitch-th set leads SRRIP; the next leads BRRIP
}

// NewDRRIP returns a 2-bit DRRIP with a 10-bit PSEL and 32+32 leader sets
// (for typical set counts).
func NewDRRIP(seed int64) *DRRIP {
	p := &DRRIP{rng: rand.New(rand.NewSource(seed)), pselMax: 1023, duelPitch: 32}
	p.bits = 2
	p.psel = 512
	return p
}

// Name implements Policy.
func (p *DRRIP) Name() string { return "DRRIP" }

// leader classifies a set: +1 SRRIP leader, -1 BRRIP leader, 0 follower.
func (p *DRRIP) leader(set int) int {
	switch set % p.duelPitch {
	case 0:
		return 1
	case 1:
		return -1
	}
	return 0
}

// useBRRIP reports the policy a set should use for insertion.
func (p *DRRIP) useBRRIP(set int) bool {
	switch p.leader(set) {
	case 1:
		return false
	case -1:
		return true
	}
	return p.psel > p.pselMax/2
}

// OnHit implements Policy.
func (p *DRRIP) OnHit(set, way int, _ mem.Access) { p.promote(set, way) }

// OnFill implements Policy. A fill implies a miss: leader-set misses move
// PSEL toward the rival policy.
func (p *DRRIP) OnFill(set, way int, _ mem.Access) {
	switch p.leader(set) {
	case 1: // SRRIP leader missed: discredit SRRIP
		if p.psel < p.pselMax {
			p.psel++
		}
	case -1: // BRRIP leader missed: discredit BRRIP
		if p.psel > 0 {
			p.psel--
		}
	}
	if p.useBRRIP(set) {
		v := p.max
		if p.rng.Intn(32) == 0 {
			v = p.max - 1
		}
		p.insert(set, way, v)
	} else {
		p.insert(set, way, p.max-1)
	}
}

// OnEvict implements Policy.
func (p *DRRIP) OnEvict(int, int) {}

// Victim implements Policy.
func (p *DRRIP) Victim(set int, _ []uint64, _ mem.Access) int { return p.victim(set) }

// RRPV exposes a line's re-reference prediction value so higher-level
// policies (P-OPT, T-OPT) can use DRRIP state to settle next-reference
// ties, as Section V-C prescribes.
//
//popt:hot
func (p *DRRIP) RRPV(set, way int) uint8 { return p.rrpv[set*p.g.Ways+way] }
