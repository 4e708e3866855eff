package cache

import "popt/internal/mem"

// GRASP (Faldu et al., HPCA 2020) is the domain-specialized baseline of
// Fig. 12a. It expects the input graph reordered with Degree-Based Grouping
// so that hot (high-degree) vertices occupy a dense prefix of the vertex ID
// space, and then protects the address region holding that prefix:
// hot-region lines insert near-MRU and promote fully on hit, while all
// other lines insert at distant RRPV and promote weakly. GRASP is a
// heuristic — vertices of similar degree are assumed to have similar reuse
// — which is exactly where P-OPT's precise next-reference information wins.

// GRASP implements Policy.
type GRASP struct {
	rripBase
	// HotBase/HotBound delimit the pinned high-degree region of the
	// irregular data array (software-configured registers in GRASP).
	HotBase, HotBound uint64
	// WarmBound extends past the hot region: lines there insert at long
	// (not distant) RRPV, mirroring GRASP's intermediate region.
	WarmBound uint64
}

// NewGRASP returns a GRASP policy managing the given hot/warm address
// ranges.
func NewGRASP(hotBase, hotBound, warmBound uint64) *GRASP {
	p := &GRASP{HotBase: hotBase, HotBound: hotBound, WarmBound: warmBound}
	p.bits = 2
	return p
}

// Name implements Policy.
func (p *GRASP) Name() string { return "GRASP" }

func (p *GRASP) region(addr uint64) int {
	switch {
	case addr >= p.HotBase && addr < p.HotBound:
		return 2 // hot
	case addr >= p.HotBound && addr < p.WarmBound:
		return 1 // warm
	default:
		return 0 // cold
	}
}

// OnHit implements Policy: hot lines promote to MRU; others promote one
// step, so streaming data cannot displace the pinned region.
func (p *GRASP) OnHit(set, way int, acc mem.Access) {
	idx := set*p.g.Ways + way
	switch p.region(acc.Addr) {
	case 2:
		p.rrpv[idx] = 0
	default:
		if p.rrpv[idx] > 0 {
			p.rrpv[idx]--
		}
	}
}

// OnFill implements Policy.
func (p *GRASP) OnFill(set, way int, acc mem.Access) {
	switch p.region(acc.Addr) {
	case 2:
		p.insert(set, way, 0)
	case 1:
		p.insert(set, way, p.max-1)
	default:
		p.insert(set, way, p.max)
	}
}

// OnEvict implements Policy.
func (p *GRASP) OnEvict(int, int) {}

// Victim implements Policy.
func (p *GRASP) Victim(set int, _ []uint64, _ mem.Access) int { return p.victim(set) }
