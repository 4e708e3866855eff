package cache

import (
	"math/rand"
	"testing"

	"popt/internal/mem"
)

// acc builds a read access.
func acc(addr uint64) mem.Access { return mem.Access{Addr: addr} }

// accPC builds a read access with a PC.
func accPC(addr uint64, pc uint16) mem.Access { return mem.Access{Addr: addr, PC: pc} }

// write builds a write access.
func write(addr uint64) mem.Access { return mem.Access{Addr: addr, Write: true} }

// tinyLevel is a 4-set, 4-way cache (1 KB).
func tinyLevel(p Policy) *Level { return NewLevel("T", 4*4*mem.LineSize, 4, p) }

// lineInSet returns the i-th distinct line address mapping to set s of l.
func lineInSet(l *Level, s, i int) uint64 {
	return uint64(s+i*l.Sets()) * mem.LineSize
}

func TestLevelHitMiss(t *testing.T) {
	l := tinyLevel(NewLRU())
	a := acc(0x1000)
	if l.Access(a) {
		t.Fatal("cold access should miss")
	}
	l.Fill(a)
	if !l.Access(a) {
		t.Fatal("second access should hit")
	}
	if l.Stats.Accesses != 2 || l.Stats.Hits != 1 || l.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", l.Stats)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	l := tinyLevel(NewLRU())
	// Fill set 0 with 4 lines, touching them in order.
	for i := 0; i < 4; i++ {
		a := acc(lineInSet(l, 0, i))
		l.Access(a)
		l.Fill(a)
	}
	// Touch line 0 to refresh it; line 1 is now LRU.
	l.Access(acc(lineInSet(l, 0, 0)))
	a := acc(lineInSet(l, 0, 4))
	l.Access(a)
	ev, was := l.Fill(a)
	if !was || ev.Addr != lineInSet(l, 0, 1) {
		t.Fatalf("evicted %#x, want line 1 %#x", ev.Addr, lineInSet(l, 0, 1))
	}
}

// TestLRUVictimTiesPickLowestWay pins the tie rule Victim shares with a
// strict-< scan: after Reserve re-binds the policy every stamp is zero and
// the victim is the lowest demand way; once some ways are touched, the
// lowest untouched one goes first. Random stamp rows with many ties must
// agree with that scan too.
func TestLRUVictimTiesPickLowestWay(t *testing.T) {
	l := NewLevel("T", 8*mem.LineSize, 8, NewLRU()) // one set, 8 ways
	for i := 0; i < 8; i++ {
		a := acc(lineInSet(l, 0, i))
		l.Access(a)
		l.Fill(a)
	}
	l.Reserve(2)
	p := l.Policy().(*LRU)
	if got := p.Victim(0, nil, mem.Access{}); got != 2 {
		t.Fatalf("victim after Reserve = way %d, want 2 (lowest demand way)", got)
	}
	p.OnHit(0, 2, mem.Access{})
	p.OnHit(0, 4, mem.Access{})
	if got := p.Victim(0, nil, mem.Access{}); got != 3 {
		t.Fatalf("victim with ways 2 and 4 touched = way %d, want 3", got)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		for w := range p.ts {
			p.ts[w] = uint64(rng.Intn(3))
		}
		want, wantTS := 2, p.ts[2]
		for w := 3; w < 8; w++ {
			if p.ts[w] < wantTS {
				want, wantTS = w, p.ts[w]
			}
		}
		if got := p.Victim(0, nil, mem.Access{}); got != want {
			t.Fatalf("stamps %v: victim %d, want %d", p.ts, got, want)
		}
	}
}

func TestBitPLRUNeverEvictsMRU(t *testing.T) {
	l := tinyLevel(NewBitPLRU())
	for i := 0; i < 4; i++ {
		a := acc(lineInSet(l, 0, i))
		l.Access(a)
		l.Fill(a)
	}
	mru := acc(lineInSet(l, 0, 3))
	l.Access(mru) // refresh way 3
	a := acc(lineInSet(l, 0, 4))
	l.Access(a)
	ev, was := l.Fill(a)
	if !was {
		t.Fatal("expected eviction")
	}
	if ev.Addr == mru.LineAddr() {
		t.Fatal("Bit-PLRU evicted the MRU line")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	l := tinyLevel(NewLRU())
	w := write(lineInSet(l, 1, 0))
	l.Access(w)
	l.Fill(w)
	for i := 1; i <= 4; i++ {
		a := acc(lineInSet(l, 1, i))
		l.Access(a)
		if ev, was := l.Fill(a); was {
			if ev.Addr != w.LineAddr() || !ev.Dirty {
				t.Fatalf("expected dirty eviction of %#x, got %+v", w.LineAddr(), ev)
			}
			return
		}
	}
	t.Fatal("no eviction occurred")
}

func TestReserveShrinksCapacity(t *testing.T) {
	l := tinyLevel(NewLRU())
	l.Reserve(2)
	// Only 2 ways usable per set now.
	for i := 0; i < 3; i++ {
		a := acc(lineInSet(l, 0, i))
		l.Access(a)
		l.Fill(a)
	}
	if got := l.Occupancy(); got != 2 {
		t.Fatalf("occupancy = %d, want 2 with 2 reserved ways", got)
	}
	// Victim must never be a reserved way: Fill panics otherwise, and the
	// loop above already exercised it.
	if l.ReservedWays() != 2 {
		t.Fatalf("ReservedWays = %d", l.ReservedWays())
	}
}

func TestReserveReturnsDisplacedDirtyLines(t *testing.T) {
	l := tinyLevel(NewLRU())
	// Warm every way of every set; make way 0's line of each set dirty by
	// writing it first (fills claim ways in order on a cold cache).
	for s := 0; s < l.Sets(); s++ {
		wr := write(lineInSet(l, s, 0))
		l.Access(wr)
		l.Fill(wr)
		for i := 1; i < l.Ways(); i++ {
			a := acc(lineInSet(l, s, i))
			l.Access(a)
			l.Fill(a)
		}
	}
	evBefore, wbBefore := l.Stats.Evictions, l.Stats.Writebacks
	dirty := l.Reserve(2)
	// Way 0 of each set held a dirty line; way 1 a clean one. Both were
	// displaced, only the dirty ones must come back.
	if len(dirty) != l.Sets() {
		t.Fatalf("Reserve returned %d dirty lines, want %d", len(dirty), l.Sets())
	}
	for s, ln := range dirty {
		if !ln.Dirty || ln.Addr != lineInSet(l, s, 0) {
			t.Fatalf("Reserve returned %+v for set %d, want its dirty way-0 line %#x", ln, s, lineInSet(l, s, 0))
		}
	}
	if got := l.Stats.Evictions - evBefore; got != uint64(2*l.Sets()) {
		t.Fatalf("Reserve counted %d evictions, want %d", got, 2*l.Sets())
	}
	if got := l.Stats.Writebacks - wbBefore; got != uint64(l.Sets()) {
		t.Fatalf("Reserve counted %d writebacks, want %d", got, l.Sets())
	}
	// A cold-cache Reserve displaces nothing.
	if extra := tinyLevel(NewLRU()).Reserve(2); len(extra) != 0 {
		t.Fatalf("cold Reserve returned %d dirty lines", len(extra))
	}
}

func TestHierarchyReserveLLCCountsDRAMWrites(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 1 << 10, L1Ways: 4,
		L2Size: 1 << 10, L2Ways: 4,
		LLCSize: 4 * 4 * mem.LineSize, LLCWays: 4,
		LLCPolicy: func() Policy { return NewLRU() },
	})
	// Dirty one LLC line per set directly (writes through the hierarchy
	// would land in L1; fill the LLC level itself).
	for s := 0; s < h.LLC.Sets(); s++ {
		wr := write(lineInSet(h.LLC, s, 0))
		h.LLC.Access(wr)
		h.LLC.Fill(wr)
	}
	h.ReserveLLC(1)
	if h.DRAMWrites != uint64(h.LLC.Sets()) {
		t.Fatalf("DRAMWrites = %d after ReserveLLC, want %d", h.DRAMWrites, h.LLC.Sets())
	}
}

func TestAllPoliciesRespectReservedWays(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewRandom(1) },
		func() Policy { return NewBitPLRU() },
		func() Policy { return NewSRRIP() },
		func() Policy { return NewBRRIP(1) },
		func() Policy { return NewDRRIP(1) },
		func() Policy { return NewSHiPPC() },
		func() Policy { return NewSHiPMem() },
		func() Policy { return NewHawkeye() },
		func() Policy { return NewGRASP(0, 1<<20, 1<<21) },
	}
	for _, mk := range policies {
		// NewCheckedPolicy additionally asserts the full Policy contract
		// (victim range, lines immutability, callback order) on every call.
		p := NewCheckedPolicy(mk())
		t.Run(p.Name(), func(t *testing.T) {
			l := tinyLevel(p)
			l.Reserve(2)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				a := accPC(uint64(rng.Intn(256))*mem.LineSize, uint16(rng.Intn(8)))
				if !l.Access(a) {
					l.Fill(a) // panics if the victim is reserved
				}
			}
			for s := 0; s < l.Sets(); s++ {
				for w := 0; w < 2; w++ {
					if _, _, ok := l.Lookup(lineInSet(l, s, 0)); ok && w < l.ReservedWays() {
						// Lookup skips reserved ways by construction; check
						// raw state instead.
						break
					}
				}
			}
		})
	}
}

func TestAllPoliciesBasicSanity(t *testing.T) {
	// Every policy must (a) hit on immediate re-reference, (b) survive a
	// random torture run, (c) not exceed capacity.
	policies := []func() Policy{
		func() Policy { return NewLRU() },
		func() Policy { return NewRandom(2) },
		func() Policy { return NewBitPLRU() },
		func() Policy { return NewSRRIP() },
		func() Policy { return NewBRRIP(2) },
		func() Policy { return NewDRRIP(2) },
		func() Policy { return NewSHiPPC() },
		func() Policy { return NewSHiPMem() },
		func() Policy { return NewHawkeye() },
		func() Policy { return NewGRASP(0, 64*mem.LineSize, 128*mem.LineSize) },
	}
	for _, mk := range policies {
		p := NewCheckedPolicy(mk())
		t.Run(p.Name(), func(t *testing.T) {
			l := NewLevel("S", 16*8*mem.LineSize, 8, p)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 20000; i++ {
				a := accPC(uint64(rng.Intn(1024))*mem.LineSize, uint16(rng.Intn(16)))
				if !l.Access(a) {
					l.Fill(a)
				}
				if !l.Access(a) {
					t.Fatal("immediate re-reference must hit")
				}
			}
			if l.Occupancy() > l.Sets()*l.Ways() {
				t.Fatal("occupancy exceeds capacity")
			}
		})
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A working set that fits plus a long scan: SRRIP should keep more of
	// the working set than LRU.
	run := func(p Policy) uint64 {
		l := NewLevel("S", 16*mem.LineSize, 16, p) // 1 set, 16 ways
		work := make([]mem.Access, 8)
		for i := range work {
			work[i] = acc(uint64(i) * mem.LineSize)
		}
		var hits uint64
		for round := 0; round < 200; round++ {
			// Two passes over the working set: the second promotes lines so
			// reuse is visible to RRIP state.
			for pass := 0; pass < 2; pass++ {
				for _, a := range work {
					if l.Access(a) {
						hits++
					} else {
						l.Fill(a)
					}
				}
			}
			// Scan 12 one-shot lines (enough to thrash LRU's 16 ways but
			// few enough that promoted SRRIP lines survive).
			for j := 0; j < 12; j++ {
				a := acc(uint64(1000+round*12+j) * mem.LineSize)
				if !l.Access(a) {
					l.Fill(a)
				}
			}
		}
		return hits
	}
	lruHits := run(NewLRU())
	srripHits := run(NewSRRIP())
	if srripHits <= lruHits {
		t.Errorf("SRRIP hits %d should exceed LRU hits %d under scanning", srripHits, lruHits)
	}
}

func TestBRRIPThrashResistance(t *testing.T) {
	// Cyclic working set slightly larger than the cache: LRU gets zero
	// hits; BRRIP keeps a subset resident.
	run := func(p Policy) uint64 {
		l := NewLevel("S", 16*mem.LineSize, 16, p)
		var hits uint64
		for round := 0; round < 300; round++ {
			for i := 0; i < 20; i++ { // 20 lines > 16 ways
				a := acc(uint64(i) * mem.LineSize)
				if l.Access(a) {
					hits++
				} else {
					l.Fill(a)
				}
			}
		}
		return hits
	}
	lruHits := run(NewLRU())
	brripHits := run(NewBRRIP(3))
	if brripHits <= lruHits+100 {
		t.Errorf("BRRIP hits %d should exceed LRU hits %d under thrashing", brripHits, lruHits)
	}
}

func TestDRRIPTracksBetterPolicy(t *testing.T) {
	// Under pure thrashing DRRIP should approach BRRIP, beating SRRIP-only
	// insertion... and under a friendly pattern it must not collapse.
	thrash := func(p Policy) uint64 {
		l := NewLevel("S", 64*16*mem.LineSize, 16, p)
		var hits uint64
		for round := 0; round < 60; round++ {
			for i := 0; i < 64*20; i++ {
				a := acc(uint64(i) * mem.LineSize)
				if l.Access(a) {
					hits++
				} else {
					l.Fill(a)
				}
			}
		}
		return hits
	}
	d, lru := thrash(NewDRRIP(4)), thrash(NewLRU())
	if d <= lru {
		t.Errorf("DRRIP hits %d should exceed LRU hits %d under thrash", d, lru)
	}
}

func TestSHiPPCLearnsDeadPC(t *testing.T) {
	// PC 1 streams (never reuses); PC 2 has a small hot set. SHiP-PC should
	// learn to insert PC 1 lines dead and protect PC 2's.
	p := NewSHiPPC()
	l := NewLevel("S", 16*mem.LineSize, 16, p)
	hot := make([]mem.Access, 4)
	for i := range hot {
		hot[i] = accPC(uint64(i)*mem.LineSize, 2)
	}
	var hotHits, hotAccesses uint64
	for round := 0; round < 500; round++ {
		// Double pass: in-round reuse trains the SHCT for PC 2 even while
		// the hot set is still being thrashed by the scan.
		for pass := 0; pass < 2; pass++ {
			for _, a := range hot {
				hotAccesses++
				if l.Access(a) {
					hotHits++
				} else {
					l.Fill(a)
				}
			}
		}
		for j := 0; j < 24; j++ {
			a := accPC(uint64(10000+round*24+j)*mem.LineSize, 1)
			if !l.Access(a) {
				l.Fill(a)
			}
		}
	}
	if rate := float64(hotHits) / float64(hotAccesses); rate < 0.9 {
		t.Errorf("SHiP-PC hot hit rate = %.2f, want >= 0.9", rate)
	}
}

func TestHawkeyeBeatsLRUOnMixedPCs(t *testing.T) {
	run := func(p Policy) uint64 {
		l := NewLevel("S", 8*8*mem.LineSize, 8, p)
		var hits uint64
		rng := rand.New(rand.NewSource(5))
		hot := 32 // lines, fits in half the cache
		for i := 0; i < 60000; i++ {
			var a mem.Access
			if rng.Intn(2) == 0 {
				a = accPC(uint64(rng.Intn(hot))*mem.LineSize, 7) // reused
			} else {
				a = accPC(uint64(100000+i)*mem.LineSize, 9) // one-shot
			}
			if l.Access(a) {
				hits++
			} else {
				l.Fill(a)
			}
		}
		return hits
	}
	hk, lru := run(NewHawkeye()), run(NewLRU())
	if hk <= lru {
		t.Errorf("Hawkeye hits %d should exceed LRU hits %d when PCs separate reuse", hk, lru)
	}
}

func TestGRASPProtectsHotRegion(t *testing.T) {
	hotLines := 8
	base := uint64(0)
	hotBound := base + uint64(hotLines)*mem.LineSize
	run := func(p Policy) uint64 {
		l := NewLevel("S", 16*mem.LineSize, 16, p)
		var hits uint64
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 40000; i++ {
			var a mem.Access
			if rng.Intn(3) == 0 {
				a = acc(base + uint64(rng.Intn(hotLines))*mem.LineSize)
			} else {
				a = acc(1<<30 + uint64(rng.Intn(512))*mem.LineSize) // cold spray
			}
			if l.Access(a) {
				hits++
			} else {
				l.Fill(a)
			}
		}
		return hits
	}
	g := run(NewGRASP(base, hotBound, hotBound+64*mem.LineSize))
	lru := run(NewLRU())
	if g <= lru {
		t.Errorf("GRASP hits %d should exceed LRU hits %d with a pinnable hot region", g, lru)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 2 * mem.LineSize, L1Ways: 2,
		L2Size: 8 * mem.LineSize, L2Ways: 2,
		LLCSize: 64 * mem.LineSize, LLCWays: 4,
		LLCPolicy: func() Policy { return NewLRU() },
	})
	a := acc(0x4000)
	if lvl := h.Access(a); lvl != HitDRAM {
		t.Fatalf("cold access = %v, want DRAM", lvl)
	}
	if lvl := h.Access(a); lvl != HitL1 {
		t.Fatalf("hot access = %v, want L1", lvl)
	}
	if h.DRAMReads != 1 {
		t.Fatalf("DRAMReads = %d, want 1", h.DRAMReads)
	}
	// Evict from tiny L1 with conflicting lines; next access should hit L2.
	h.Access(acc(0x4000 + 2*mem.LineSize))
	h.Access(acc(0x4000 + 4*mem.LineSize))
	if lvl := h.Access(a); lvl != HitL2 {
		t.Fatalf("access after L1 eviction = %v, want L2", lvl)
	}
}

func TestHierarchyWritebackReachesDRAM(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 2 * mem.LineSize, L1Ways: 2,
		L2Size: 4 * mem.LineSize, L2Ways: 2,
		LLCSize: 8 * mem.LineSize, LLCWays: 2,
		LLCPolicy: func() Policy { return NewLRU() },
	})
	h.Access(write(0))
	// Spray enough distinct conflicting lines to push the dirty line out of
	// every level.
	for i := 1; i < 64; i++ {
		h.Access(acc(uint64(i) * 1024))
	}
	if h.DRAMWrites == 0 {
		t.Error("dirty line never wrote back to DRAM")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	l := tinyLevel(NewLRU())
	w := write(0x2000)
	l.Access(w)
	l.Fill(w)
	dirty, present := l.Invalidate(w.LineAddr())
	if !present || !dirty {
		t.Fatalf("Invalidate = dirty %v present %v", dirty, present)
	}
	if _, present := l.Invalidate(w.LineAddr()); present {
		t.Fatal("double invalidate should miss")
	}
	l.Fill(acc(0x3000))
	l.Flush()
	if l.Occupancy() != 0 {
		t.Fatal("flush left valid lines")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4, Evictions: 2, Writebacks: 1}
	b := Stats{Accesses: 5, Hits: 1, Misses: 4}
	a.Add(b)
	if a.Accesses != 15 || a.Hits != 7 || a.Misses != 8 {
		t.Errorf("Add result = %+v", a)
	}
	if mr := a.MissRate(); mr != 8.0/15 {
		t.Errorf("MissRate = %v", mr)
	}
}

func TestHierarchyPrefetch(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 2 * mem.LineSize, L1Ways: 2,
		L2Size: 4 * mem.LineSize, L2Ways: 2,
		LLCSize: 16 * mem.LineSize, LLCWays: 4,
		LLCPolicy: func() Policy { return NewLRU() },
	})
	h.Prefetch(acc(0x8000))
	if h.PrefetchIssued != 1 || h.PrefetchFills != 1 || h.DRAMReads != 1 {
		t.Fatalf("prefetch counters: issued=%d fills=%d dram=%d", h.PrefetchIssued, h.PrefetchFills, h.DRAMReads)
	}
	// Demand access after prefetch hits in the LLC, not DRAM.
	if lvl := h.Access(acc(0x8000)); lvl != HitLLC {
		t.Fatalf("post-prefetch access hit %v, want LLC", lvl)
	}
	// Duplicate prefetch is a no-op fill.
	h.Prefetch(acc(0x8000))
	if h.PrefetchFills != 1 {
		t.Fatal("resident prefetch refilled")
	}
	// Demand stats untouched by prefetches beyond the one real access.
	if h.LLC.Stats.Accesses != 1 {
		t.Fatalf("LLC demand accesses = %d, want 1", h.LLC.Stats.Accesses)
	}
}

func TestLevelGeometryAccessors(t *testing.T) {
	l := NewLevel("X", 32*mem.LineSize, 4, NewLRU())
	if l.Sets() != 8 || l.Ways() != 4 || l.ReservedWays() != 0 {
		t.Fatalf("geometry: sets=%d ways=%d resvd=%d", l.Sets(), l.Ways(), l.ReservedWays())
	}
	if l.Policy().Name() != "LRU" {
		t.Fatal("policy accessor broken")
	}
}

func TestNonPowerOfTwoSetCount(t *testing.T) {
	// The paper's 24 MB 16-way LLC has 24576 sets; modulo indexing must
	// spread lines across all of them.
	l := NewLevel("LLC", 3*16*mem.LineSize, 16, NewLRU()) // 3 sets
	seen := map[int]bool{}
	for i := 0; i < 30; i++ {
		seen[l.SetIndex(uint64(i)*mem.LineSize)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("line addresses reached %d sets, want 3", len(seen))
	}
}

func TestDRRIPRRPVAccessor(t *testing.T) {
	p := NewDRRIP(1)
	l := tinyLevel(p)
	a := acc(lineInSet(l, 0, 0))
	l.Access(a)
	l.Fill(a)
	_, way, ok := l.Lookup(a.LineAddr())
	if !ok {
		t.Fatal("fill lost")
	}
	before := p.RRPV(0, way)
	l.Access(a) // hit promotes to 0
	if p.RRPV(0, way) != 0 || before == 0 {
		t.Fatalf("RRPV promote: before=%d after=%d", before, p.RRPV(0, way))
	}
}

func TestSDBPLearnsDeadPC(t *testing.T) {
	// PC 1 streams one-shot lines; PC 2 keeps a hot set. SDBP should
	// learn PC 1's blocks die and evict them first, protecting PC 2.
	p := NewSDBP()
	l := NewLevel("S", 16*16*mem.LineSize, 16, p) // 16 sets so set 0 samples
	hot := make([]mem.Access, 32)
	for i := range hot {
		hot[i] = accPC(uint64(i)*mem.LineSize, 2)
	}
	var hotHits, hotAccesses uint64
	for round := 0; round < 400; round++ {
		for pass := 0; pass < 2; pass++ {
			for _, a := range hot {
				hotAccesses++
				if l.Access(a) {
					hotHits++
				} else {
					l.Fill(a)
				}
			}
		}
		for j := 0; j < 256; j++ {
			a := accPC(uint64(100000+round*256+j)*mem.LineSize, 1)
			if !l.Access(a) {
				l.Fill(a)
			}
		}
	}
	lruHits := func() uint64 {
		l := NewLevel("S", 16*16*mem.LineSize, 16, NewLRU())
		var hits uint64
		for round := 0; round < 400; round++ {
			for pass := 0; pass < 2; pass++ {
				for _, a := range hot {
					if l.Access(a) {
						hits++
					} else {
						l.Fill(a)
					}
				}
			}
			for j := 0; j < 256; j++ {
				a := accPC(uint64(100000+round*256+j)*mem.LineSize, 1)
				if !l.Access(a) {
					l.Fill(a)
				}
			}
		}
		return hits
	}()
	if hotHits <= lruHits {
		t.Errorf("SDBP hot hits %d should exceed LRU %d", hotHits, lruHits)
	}
	_ = hotAccesses
}

func TestSDBPBasicSanityAndReservedWays(t *testing.T) {
	p := NewSDBP()
	l := tinyLevel(p)
	l.Reserve(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		a := accPC(uint64(rng.Intn(512))*mem.LineSize, uint16(rng.Intn(8)))
		if !l.Access(a) {
			l.Fill(a)
		}
		if !l.Access(a) {
			t.Fatal("immediate re-reference must hit")
		}
	}
}

func TestDIPThrashResistance(t *testing.T) {
	// Cyclic working set larger than the cache: LRU thrashes; DIP's BIP
	// side retains a fraction.
	run := func(p Policy) uint64 {
		l := NewLevel("S", 64*16*mem.LineSize, 16, p)
		var hits uint64
		for round := 0; round < 100; round++ {
			for i := 0; i < 64*20; i++ {
				a := acc(uint64(i) * mem.LineSize)
				if l.Access(a) {
					hits++
				} else {
					l.Fill(a)
				}
			}
		}
		return hits
	}
	lru, dip := run(NewLRU()), run(NewDIP(5))
	if dip <= lru {
		t.Errorf("DIP hits %d should exceed LRU %d under thrashing", dip, lru)
	}
}

func TestDIPSanityAndReservedWays(t *testing.T) {
	p := NewDIP(9)
	l := tinyLevel(p)
	l.Reserve(1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		a := acc(uint64(rng.Intn(512)) * mem.LineSize)
		if !l.Access(a) {
			l.Fill(a)
		}
		if !l.Access(a) {
			t.Fatal("immediate re-reference must hit")
		}
	}
}

// TestHierarchyInvariants drives random traffic and checks the structural
// accounting invariants that every level and the DRAM counters must obey.
func TestHierarchyInvariants(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 1 << 10, L1Ways: 4,
		L2Size: 4 << 10, L2Ways: 4,
		LLCSize: 16 << 10, LLCWays: 8,
		LLCPolicy: func() Policy { return NewDRRIP(1) },
	})
	rng := rand.New(rand.NewSource(12))
	var l1Hits, l2Hits, llcHits, dram uint64
	for i := 0; i < 100000; i++ {
		a := mem.Access{Addr: uint64(rng.Intn(4096)) * mem.LineSize, Write: rng.Intn(4) == 0}
		switch h.Access(a) {
		case HitL1:
			l1Hits++
		case HitL2:
			l2Hits++
		case HitLLC:
			llcHits++
		default:
			dram++
		}
	}
	if h.L1.Stats.Accesses != 100000 {
		t.Errorf("L1 accesses = %d", h.L1.Stats.Accesses)
	}
	for _, l := range []*Level{h.L1, h.L2, h.LLC} {
		if l.Stats.Hits+l.Stats.Misses != l.Stats.Accesses {
			t.Errorf("%s: hits+misses != accesses", l.Name)
		}
	}
	if h.L2.Stats.Accesses != h.L1.Stats.Misses {
		t.Error("L2 accesses must equal L1 misses")
	}
	if h.LLC.Stats.Accesses != h.L2.Stats.Misses {
		t.Error("LLC accesses must equal L2 misses")
	}
	if h.DRAMReads != h.LLC.Stats.Misses {
		t.Error("DRAM reads must equal LLC misses (no prefetching here)")
	}
	if l1Hits != h.L1.Stats.Hits || l2Hits != h.L2.Stats.Hits || llcHits != h.LLC.Stats.Hits || dram != h.DRAMReads {
		t.Error("HitLevel classification disagrees with level stats")
	}
}

// TestHitLevelString covers the formatting helper.
func TestHitLevelString(t *testing.T) {
	want := []struct {
		lvl HitLevel
		s   string
	}{{HitL1, "L1"}, {HitL2, "L2"}, {HitLLC, "LLC"}, {HitDRAM, "DRAM"}}
	for _, tc := range want {
		lvl, s := tc.lvl, tc.s
		if lvl.String() != s {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), s)
		}
	}
}
