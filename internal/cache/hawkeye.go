package cache

import "popt/internal/mem"

// Hawkeye (Jain & Lin, ISCA 2016; 2019 cache replacement championship
// winner) retroactively applies Belady's MIN to a sampled access history
// (OPTgen) and trains a PC-indexed predictor with the outcome: PCs whose
// past accesses would have hit under OPT are "cache-friendly" and insert
// near-MRU; the rest insert distant. Graph kernels defeat it because one PC
// touches both hot and cold vertices (Section II-B).

const (
	hawkeyeRRPVBits  = 3
	hawkeyeMaxRRPV   = 1<<hawkeyeRRPVBits - 1
	hawkeyePredSize  = 1 << 13
	hawkeyePredMax   = 7 // 3-bit counters
	hawkeyeSamplePct = 8 // every 8th set is sampled
	hawkeyeHistScale = 8 // history window = 8x ways accesses per sampled set
)

// hawkeyeSample is the per-sampled-set OPTgen state: a sliding occupancy
// vector over recent accesses plus the last access time/PC per line.
type hawkeyeSample struct {
	time      uint64            // accesses seen by this set
	occupancy []uint8           // ring buffer indexed by time % len
	lastTime  map[uint64]uint64 // line addr -> last access time
	lastPC    map[uint64]uint16 // line addr -> PC of last access
}

// Hawkeye implements Policy.
type Hawkeye struct {
	g       Geometry
	rrpv    []uint8
	linePC  []uint16
	lineFr  []bool // inserted as cache-friendly
	pred    []uint8
	samples map[int]*hawkeyeSample
	window  uint64
}

// NewHawkeye returns a Hawkeye policy.
func NewHawkeye() *Hawkeye { return &Hawkeye{} }

// Name implements Policy.
func (p *Hawkeye) Name() string { return "Hawkeye" }

// Bind implements Policy.
func (p *Hawkeye) Bind(g Geometry) {
	p.g = g
	p.rrpv = make([]uint8, g.Sets*g.Ways)
	for i := range p.rrpv {
		p.rrpv[i] = hawkeyeMaxRRPV
	}
	p.linePC = make([]uint16, g.Sets*g.Ways)
	p.lineFr = make([]bool, g.Sets*g.Ways)
	if p.pred == nil {
		p.pred = make([]uint8, hawkeyePredSize)
		for i := range p.pred {
			p.pred[i] = hawkeyePredMax/2 + 1 // weakly friendly
		}
	}
	p.samples = make(map[int]*hawkeyeSample)
	p.window = uint64(hawkeyeHistScale * (g.Ways - g.ReservedWays))
	if p.window == 0 {
		p.window = 8
	}
}

func (p *Hawkeye) predIndex(pc uint16) int { return int(pc) % hawkeyePredSize }

func (p *Hawkeye) friendly(pc uint16) bool { return p.pred[p.predIndex(pc)] > hawkeyePredMax/2 }

func (p *Hawkeye) train(pc uint16, hit bool) {
	i := p.predIndex(pc)
	if hit {
		if p.pred[i] < hawkeyePredMax {
			p.pred[i]++
		}
	} else if p.pred[i] > 0 {
		p.pred[i]--
	}
}

// observe runs OPTgen for sampled sets: on a reuse of lineAddr, decide
// whether Belady's MIN would have kept it across the interval and train the
// PC that loaded it accordingly.
func (p *Hawkeye) observe(set int, acc mem.Access) {
	if set%hawkeyeSamplePct != 0 {
		return
	}
	s := p.samples[set]
	if s == nil {
		s = &hawkeyeSample{
			occupancy: make([]uint8, p.window),
			lastTime:  make(map[uint64]uint64),
			lastPC:    make(map[uint64]uint16),
		}
		p.samples[set] = s
	}
	la := acc.LineAddr()
	now := s.time
	s.time++
	// Expire the slot we are about to reuse in the ring.
	s.occupancy[now%p.window] = 0
	capacity := uint8(p.g.Ways - p.g.ReservedWays)
	if t0, seen := s.lastTime[la]; seen && now-t0 < p.window {
		// Would OPT have hit? Only if every quantum in [t0, now) has spare
		// occupancy.
		optHit := true
		for t := t0; t < now; t++ {
			if s.occupancy[t%p.window] >= capacity {
				optHit = false
				break
			}
		}
		if optHit {
			for t := t0; t < now; t++ {
				s.occupancy[t%p.window]++
			}
		}
		p.train(s.lastPC[la], optHit)
	}
	s.lastTime[la] = now
	s.lastPC[la] = acc.PC
	// Garbage-collect entries older than the window occasionally. The
	// iteration order is immaterial: every expired entry is deleted and
	// no policy state is read or written here.
	if len(s.lastTime) > 4*int(p.window) {
		//lint:ordered
		for a, t := range s.lastTime {
			if now-t >= p.window {
				delete(s.lastTime, a)
				delete(s.lastPC, a)
			}
		}
	}
}

// OnHit implements Policy.
func (p *Hawkeye) OnHit(set, way int, acc mem.Access) {
	p.observe(set, acc)
	idx := set*p.g.Ways + way
	p.linePC[idx] = acc.PC
	if p.friendly(acc.PC) {
		p.rrpv[idx] = 0
		p.lineFr[idx] = true
	} else {
		p.rrpv[idx] = hawkeyeMaxRRPV
		p.lineFr[idx] = false
	}
}

// OnFill implements Policy: friendly lines insert at 0 and age their
// peers; averse lines insert distant.
func (p *Hawkeye) OnFill(set, way int, acc mem.Access) {
	p.observe(set, acc)
	idx := set*p.g.Ways + way
	p.linePC[idx] = acc.PC
	if p.friendly(acc.PC) {
		// Age other friendly lines to keep relative order.
		base := set * p.g.Ways
		for w := p.g.ReservedWays; w < p.g.Ways; w++ {
			if w != way && p.lineFr[base+w] && p.rrpv[base+w] < hawkeyeMaxRRPV-1 {
				p.rrpv[base+w]++
			}
		}
		p.rrpv[idx] = 0
		p.lineFr[idx] = true
	} else {
		p.rrpv[idx] = hawkeyeMaxRRPV
		p.lineFr[idx] = false
	}
}

// OnEvict implements Policy: evicting a friendly line that a PC loaded
// means the predictor overcommitted; detrain it.
func (p *Hawkeye) OnEvict(set, way int) {
	idx := set*p.g.Ways + way
	if p.lineFr[idx] {
		p.train(p.linePC[idx], false)
	}
}

// Victim implements Policy: prefer an averse (distant) line; otherwise the
// oldest friendly line.
func (p *Hawkeye) Victim(set int, _ []uint64, _ mem.Access) int {
	base := set * p.g.Ways
	best, bestRRPV := -1, -1
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		if int(p.rrpv[base+w]) > bestRRPV {
			best, bestRRPV = w, int(p.rrpv[base+w])
		}
	}
	return best
}
