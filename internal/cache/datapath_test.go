package cache

import (
	"math/rand"
	"testing"

	"popt/internal/mem"
)

// checkSoACoherence asserts the invariants that tie a Level's line store
// together: a way's valid bit is set exactly when its tag is not
// tagSentinel, a valid tag maps to the set holding it, reserved ways never
// hold lines, dirty is a subset of valid, and Occupancy's popcount agrees
// with a walk of the tags.
func checkSoACoherence(t *testing.T, l *Level) {
	t.Helper()
	walked := 0
	for s := 0; s < l.sets; s++ {
		for w := 0; w < l.ways; w++ {
			tag := l.tags[s*l.ways+w]
			valid := l.valid[s]&(1<<uint(w)) != 0
			if valid != (tag != tagSentinel) {
				t.Fatalf("set %d way %d: valid bit %v but tag %#x", s, w, valid, tag)
			}
			if !valid {
				continue
			}
			walked++
			if w < l.resvd {
				t.Fatalf("set %d way %d: valid line in reserved way (resvd=%d)", s, w, l.resvd)
			}
			if got := l.SetIndex(tag); got != s {
				t.Fatalf("set %d way %d: tag %#x maps to set %d", s, w, tag, got)
			}
		}
		if l.dirty[s]&^l.valid[s] != 0 {
			t.Fatalf("set %d: dirty mask %#x not a subset of valid mask %#x", s, l.dirty[s], l.valid[s])
		}
	}
	if occ := l.Occupancy(); occ != walked {
		t.Fatalf("Occupancy() = %d, walk counted %d", occ, walked)
	}
}

// TestLineStoreCoherence drives every mutating entry point of a Level with
// a randomized operation mix and checks the line store's invariants
// (checkSoACoherence) after every step.
func TestLineStoreCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// 12 sets x 4 ways (non-power-of-two set count) with a 3x-capacity
	// address pool so fills, evictions and misses all occur constantly.
	const ways = 4
	l := NewLevel("prop", 12*ways*mem.LineSize, ways, NewLRU())
	pool := make([]uint64, 3*12*ways)
	for i := range pool {
		pool[i] = uint64(i) * mem.LineSize
	}
	addr := func() uint64 { return pool[rng.Intn(len(pool))] }

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // demand access, fill on miss (mirrors Hierarchy)
			acc := mem.Access{Addr: addr(), PC: uint16(rng.Intn(4)), Write: rng.Intn(3) == 0}
			if !l.Access(acc) {
				l.Fill(acc)
			}
		case op < 70: // writeback sink
			l.MarkDirty(addr())
		case op < 85: // invalidation
			l.Invalidate(addr())
		case op < 97: // lookup is read-only; also exercise SetIndex range
			if set, way, ok := l.Lookup(addr()); ok {
				if set < 0 || set >= l.sets || way < l.resvd || way >= l.ways {
					t.Fatalf("Lookup returned out-of-range (set=%d, way=%d)", set, way)
				}
			}
		case op < 99: // repartition
			l.Reserve(rng.Intn(ways))
		default:
			l.Flush()
		}
		checkSoACoherence(t, l)
	}
}

// TestSetIndexMatchesModulo pins the fastmod set mapping to the footnote-3
// modulo it strength-reduces, on non-power-of-two and power-of-two set
// counts alike.
func TestSetIndexMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{24 << 20, 160 << 10, 1 << 20, 3 << 20} {
		l := NewLevel("mod", size, 16, NewLRU())
		for i := 0; i < 10000; i++ {
			la := rng.Uint64() &^ (mem.LineSize - 1)
			want := int((la >> mem.LineShift) % uint64(l.Sets()))
			if got := l.SetIndex(la); got != want {
				t.Fatalf("sets=%d: SetIndex(%#x) = %d, want %d", l.Sets(), la, got, want)
			}
		}
	}
}

// bindCounter wraps a policy and counts Bind calls; Flush must re-bind so
// replacement metadata does not survive an invalidated cache.
type bindCounter struct {
	Policy
	binds int
}

func (b *bindCounter) Bind(g Geometry) {
	b.binds++
	b.Policy.Bind(g)
}

func TestFlushRebindsPolicy(t *testing.T) {
	pol := &bindCounter{Policy: NewLRU()}
	l := NewLevel("flush", 4*2*mem.LineSize, 2, pol)
	if pol.binds != 1 {
		t.Fatalf("NewLevel bound policy %d times, want 1", pol.binds)
	}
	for i := 0; i < 16; i++ {
		acc := mem.Access{Addr: uint64(i) * mem.LineSize, Write: i%2 == 0}
		if !l.Access(acc) {
			l.Fill(acc)
		}
	}
	l.Flush()
	if pol.binds != 2 {
		t.Fatalf("Flush left policy binds at %d, want 2 (flush must reset replacement metadata)", pol.binds)
	}
	if occ := l.Occupancy(); occ != 0 {
		t.Fatalf("Occupancy after flush = %d, want 0", occ)
	}
	if _, _, ok := l.Lookup(0); ok {
		t.Fatal("Lookup hit after flush")
	}
	// The re-bind must preserve the reservation geometry.
	l.Reserve(1)
	l.Flush()
	if got := l.ReservedWays(); got != 1 {
		t.Fatalf("ReservedWays after flush = %d, want 1", got)
	}
	if pol.binds != 4 { // +1 reserve, +1 flush
		t.Fatalf("binds after reserve+flush = %d, want 4", pol.binds)
	}
}
