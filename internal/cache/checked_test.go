package cache

import (
	"strings"
	"testing"

	"popt/internal/mem"
)

// fakePolicy is a configurable misbehaving policy for exercising
// CheckedPolicy. victim decides the returned way; mutate optionally
// scribbles on the borrowed tag row.
type fakePolicy struct {
	g      Geometry
	victim func(g Geometry) int
	mutate func(tags []uint64)
}

func (f *fakePolicy) Name() string { return "fake" }

//lint:allow policycontract (the victim closure decides ReservedWays handling per test case)
func (f *fakePolicy) Bind(g Geometry)                   { f.g = g }
func (f *fakePolicy) OnHit(set, way int, a mem.Access)  {}
func (f *fakePolicy) OnFill(set, way int, a mem.Access) {}
func (f *fakePolicy) OnEvict(set, way int)              {}

func (f *fakePolicy) Victim(set int, tags []uint64, a mem.Access) int {
	if f.mutate != nil {
		//lint:allow policycontract (deliberately misbehaving test fake)
		f.mutate(tags)
	}
	return f.victim(f.g)
}

func mustViolate(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected contract-violation panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.HasPrefix(msg, "cache: contract violation:") {
			t.Fatalf("panic %q does not carry the contract-violation prefix", msg)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not mention %q", msg, substr)
		}
	}()
	fn()
}

// boundChecked returns a checker bound to a small geometry with two
// reserved ways, plus the tag row of a full set for Victim calls: the
// reserved ways hold the sentinel, as in a Level.
func boundChecked(f *fakePolicy) (*CheckedPolicy, []uint64) {
	c := NewCheckedPolicy(f)
	c.Bind(Geometry{Sets: 4, Ways: 4, ReservedWays: 2})
	tags := []uint64{tagSentinel, tagSentinel, 2 * mem.LineSize, 3 * mem.LineSize}
	return c, tags
}

func TestCheckedPolicyPassthrough(t *testing.T) {
	f := &fakePolicy{victim: func(g Geometry) int { return g.ReservedWays }}
	c, tags := boundChecked(f)
	if c.Name() != "fake" {
		t.Fatalf("Name() = %q, want passthrough", c.Name())
	}
	if c.Unwrap() != Policy(f) {
		t.Fatal("Unwrap() lost the inner policy")
	}
	if NewCheckedPolicy(c) != c {
		t.Fatal("NewCheckedPolicy must be idempotent")
	}
	a := mem.Access{Addr: 42 * mem.LineSize}
	// Free-way fill, hit, then a full eviction transaction: all legal.
	c.OnFill(1, 2, a)
	c.OnHit(1, 2, a)
	w := c.Victim(0, tags, a)
	if w != 2 {
		t.Fatalf("Victim = %d, want 2", w)
	}
	c.OnEvict(0, w)
	c.OnFill(0, w, a)
	// The transaction closed: another hit is legal again.
	c.OnHit(0, w, a)
}

func TestCheckedPolicyVictimOutOfRange(t *testing.T) {
	f := &fakePolicy{victim: func(g Geometry) int { return g.Ways }}
	c, tags := boundChecked(f)
	mustViolate(t, "outside [ReservedWays=2, Ways=4)", func() {
		c.Victim(0, tags, mem.Access{})
	})
}

func TestCheckedPolicyVictimInReservedWay(t *testing.T) {
	f := &fakePolicy{victim: func(g Geometry) int { return 0 }}
	c, tags := boundChecked(f)
	mustViolate(t, "outside [ReservedWays=2, Ways=4)", func() {
		c.Victim(0, tags, mem.Access{})
	})
}

func TestCheckedPolicyVictimMutatesLines(t *testing.T) {
	f := &fakePolicy{
		victim: func(g Geometry) int { return g.ReservedWays },
		mutate: func(tags []uint64) { tags[3] ^= mem.LineSize },
	}
	c, tags := boundChecked(f)
	mustViolate(t, "mutated tags[3]", func() {
		c.Victim(0, tags, mem.Access{})
	})
}

func TestCheckedPolicyUseBeforeBind(t *testing.T) {
	f := &fakePolicy{victim: func(g Geometry) int { return 0 }}
	c := NewCheckedPolicy(f)
	mustViolate(t, "Victim before Bind", func() {
		c.Victim(0, make([]uint64, 4), mem.Access{})
	})
	mustViolate(t, "OnHit before Bind", func() {
		c.OnHit(0, 0, mem.Access{})
	})
}

func TestCheckedPolicyBadGeometry(t *testing.T) {
	f := &fakePolicy{victim: func(g Geometry) int { return 0 }}
	mustViolate(t, "ReservedWays=4 outside [0, Ways=4)", func() {
		NewCheckedPolicy(f).Bind(Geometry{Sets: 4, Ways: 4, ReservedWays: 4})
	})
	mustViolate(t, "nonpositive geometry", func() {
		NewCheckedPolicy(f).Bind(Geometry{Sets: 0, Ways: 4})
	})
}

func TestCheckedPolicyCallbackOrder(t *testing.T) {
	mk := func() (*CheckedPolicy, []uint64) {
		return boundChecked(&fakePolicy{victim: func(g Geometry) int { return g.ReservedWays }})
	}
	a := mem.Access{}

	t.Run("EvictWithoutVictim", func(t *testing.T) {
		c, _ := mk()
		mustViolate(t, "no preceding Victim", func() { c.OnEvict(0, 2) })
	})
	t.Run("FillBeforeEvict", func(t *testing.T) {
		c, tags := mk()
		w := c.Victim(0, tags, a)
		mustViolate(t, "before OnEvict", func() { c.OnFill(0, w, a) })
	})
	t.Run("EvictWrongWay", func(t *testing.T) {
		c, tags := mk()
		c.Victim(0, tags, a)
		mustViolate(t, "does not match Victim's choice", func() { c.OnEvict(0, 3) })
	})
	t.Run("DuplicateEvict", func(t *testing.T) {
		c, tags := mk()
		w := c.Victim(0, tags, a)
		c.OnEvict(0, w)
		mustViolate(t, "duplicate OnEvict", func() { c.OnEvict(0, w) })
	})
	t.Run("HitDuringEviction", func(t *testing.T) {
		c, tags := mk()
		c.Victim(0, tags, a)
		mustViolate(t, "while eviction", func() { c.OnHit(1, 2, a) })
	})
	t.Run("VictimDuringEviction", func(t *testing.T) {
		c, tags := mk()
		c.Victim(0, tags, a)
		mustViolate(t, "while eviction", func() { c.Victim(1, tags, a) })
	})
	t.Run("FillWrongWay", func(t *testing.T) {
		c, tags := mk()
		w := c.Victim(0, tags, a)
		c.OnEvict(0, w)
		mustViolate(t, "does not match Victim's choice", func() { c.OnFill(0, 3, a) })
	})
	t.Run("VictimOnPartialSet", func(t *testing.T) {
		c, tags := mk()
		tags[3] = tagSentinel
		mustViolate(t, "invalid line in way 3", func() { c.Victim(0, tags, a) })
	})
	t.Run("FillReservedWay", func(t *testing.T) {
		c, _ := mk()
		mustViolate(t, "reserved way 1", func() { c.OnFill(0, 1, a) })
	})
	t.Run("RebindAbortsTransaction", func(t *testing.T) {
		c, tags := mk()
		c.Victim(0, tags, a)
		c.Bind(Geometry{Sets: 4, Ways: 4, ReservedWays: 2}) // Reserve re-binds
		c.OnHit(0, 2, a)                                    // legal again: the transaction was dropped
	})
}

func TestCheckedPolicyUnderLevel(t *testing.T) {
	// A checked LRU behind a real Level over a random torture run: the
	// Level's call protocol must never trip the checker.
	c := NewCheckedPolicy(NewLRU())
	l := NewLevel("chk", 8*4*mem.LineSize, 4, c)
	l.Reserve(1)
	for i := 0; i < 4000; i++ {
		a := mem.Access{Addr: uint64(i*37%256) * mem.LineSize, Write: i%5 == 0}
		if !l.Access(a) {
			l.Fill(a)
		}
	}
	if l.Stats.Accesses != 4000 {
		t.Fatalf("accesses = %d, want 4000", l.Stats.Accesses)
	}
}
