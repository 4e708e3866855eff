package cache

import (
	"fmt"

	"popt/internal/mem"
)

// CheckedPolicy is a runtime complement to the static policycontract
// analyzer: it wraps any Policy and panics on the contract violations the
// analyzer cannot prove — a Victim outside [ReservedWays, Ways), mutation
// of the borrowed tag row where the static borrow check is suppressed
// (a //lint:allow site) or blind (unsafe), use before Bind, or callbacks
// arriving out of protocol order (Victim → OnEvict → OnFill on an
// evicting miss, OnFill alone on a free-way fill, OnHit only when no
// eviction is in flight).
//
// CheckedPolicy deliberately implements only the core Policy interface.
// Optional hook interfaces (epoch resets, tile switches, index updates)
// are dispatched by type assertion at the call sites, so forwarding them
// unconditionally would change behavior for wrapped policies that lack
// them; callers that need hooks keep a reference to the unwrapped policy
// (see Unwrap).
type CheckedPolicy struct {
	inner Policy
	g     Geometry
	bound bool

	// One eviction transaction may be in flight per level at a time:
	// Victim opens it, OnEvict acknowledges it, OnFill closes it.
	pending  bool
	sawEvict bool
	pSet     int
	pWay     int

	snap []uint64 // scratch copy of the tag row for the mutation check
}

// NewCheckedPolicy wraps p with runtime contract assertions. Name is
// passed through unchanged so reports are identical with checking on or
// off.
func NewCheckedPolicy(p Policy) *CheckedPolicy {
	if p == nil {
		panic("cache: contract violation: NewCheckedPolicy(nil)")
	}
	if c, ok := p.(*CheckedPolicy); ok {
		return c // idempotent: don't stack checkers
	}
	return &CheckedPolicy{inner: p}
}

// Unwrap returns the policy being checked.
func (c *CheckedPolicy) Unwrap() Policy { return c.inner }

// Name reports the wrapped policy's name.
func (c *CheckedPolicy) Name() string { return c.inner.Name() }

func (c *CheckedPolicy) violatef(format string, args ...any) {
	panic(fmt.Sprintf("cache: contract violation: policy %s: %s",
		c.inner.Name(), fmt.Sprintf(format, args...)))
}

// Bind validates the geometry and forwards it. Rebinding (cf.
// Level.Reserve) aborts any in-flight eviction transaction.
func (c *CheckedPolicy) Bind(g Geometry) {
	if g.Sets <= 0 || g.Ways <= 0 {
		c.violatef("Bind with nonpositive geometry %+v", g)
	}
	if g.ReservedWays < 0 || g.ReservedWays >= g.Ways {
		c.violatef("Bind with ReservedWays=%d outside [0, Ways=%d)", g.ReservedWays, g.Ways)
	}
	c.g = g
	c.bound = true
	c.pending = false
	c.sawEvict = false
	c.inner.Bind(g)
}

func (c *CheckedPolicy) requireBound(op string) {
	if !c.bound {
		c.violatef("%s before Bind", op)
	}
}

func (c *CheckedPolicy) checkSetWay(op string, set, way int) {
	if set < 0 || set >= c.g.Sets {
		c.violatef("%s with set %d outside [0, %d)", op, set, c.g.Sets)
	}
	if way < 0 || way >= c.g.Ways {
		c.violatef("%s with way %d outside [0, %d)", op, way, c.g.Ways)
	}
}

// OnHit forwards a hit; no eviction may be in flight.
func (c *CheckedPolicy) OnHit(set, way int, acc mem.Access) {
	c.requireBound("OnHit")
	c.checkSetWay("OnHit", set, way)
	if c.pending {
		c.violatef("OnHit(set=%d, way=%d) while eviction of (set=%d, way=%d) is in flight", set, way, c.pSet, c.pWay)
	}
	if way < c.g.ReservedWays {
		c.violatef("OnHit in reserved way %d (ReservedWays=%d)", way, c.g.ReservedWays)
	}
	c.inner.OnHit(set, way, acc)
}

// Victim forwards victim selection, asserting the returned way is legal
// and the borrowed tag row comes back unchanged.
func (c *CheckedPolicy) Victim(set int, tags []uint64, acc mem.Access) int {
	c.requireBound("Victim")
	if set < 0 || set >= c.g.Sets {
		c.violatef("Victim with set %d outside [0, %d)", set, c.g.Sets)
	}
	if len(tags) != c.g.Ways {
		c.violatef("Victim with %d tags for %d ways", len(tags), c.g.Ways)
	}
	if c.pending {
		c.violatef("Victim(set=%d) while eviction of (set=%d, way=%d) is in flight", set, c.pSet, c.pWay)
	}
	for w := c.g.ReservedWays; w < len(tags); w++ {
		if tags[w] == tagSentinel {
			c.violatef("Victim(set=%d) with invalid line in way %d; Victim is only called on full sets", set, w)
		}
	}
	c.snap = append(c.snap[:0], tags...)
	way := c.inner.Victim(set, tags, acc)
	for i := range tags {
		if tags[i] != c.snap[i] {
			c.violatef("Victim(set=%d) mutated tags[%d]: %#x -> %#x (tags aliases cache storage and is read-only)",
				set, i, c.snap[i], tags[i])
		}
	}
	if way < c.g.ReservedWays || way >= c.g.Ways {
		c.violatef("Victim(set=%d) returned way %d outside [ReservedWays=%d, Ways=%d)",
			set, way, c.g.ReservedWays, c.g.Ways)
	}
	c.pending = true
	c.sawEvict = false
	c.pSet, c.pWay = set, way
	return way
}

// OnEvict forwards an eviction; it must acknowledge the victim just
// selected.
func (c *CheckedPolicy) OnEvict(set, way int) {
	c.requireBound("OnEvict")
	c.checkSetWay("OnEvict", set, way)
	if !c.pending {
		c.violatef("OnEvict(set=%d, way=%d) with no preceding Victim", set, way)
	}
	if c.sawEvict {
		c.violatef("duplicate OnEvict(set=%d, way=%d)", set, way)
	}
	if set != c.pSet || way != c.pWay {
		c.violatef("OnEvict(set=%d, way=%d) does not match Victim's choice (set=%d, way=%d)", set, way, c.pSet, c.pWay)
	}
	c.sawEvict = true
	c.inner.OnEvict(set, way)
}

// OnFill forwards a fill; it either closes the in-flight eviction
// transaction or records a free-way fill.
func (c *CheckedPolicy) OnFill(set, way int, acc mem.Access) {
	c.requireBound("OnFill")
	c.checkSetWay("OnFill", set, way)
	if way < c.g.ReservedWays {
		c.violatef("OnFill in reserved way %d (ReservedWays=%d)", way, c.g.ReservedWays)
	}
	if c.pending {
		if !c.sawEvict {
			c.violatef("OnFill(set=%d, way=%d) before OnEvict for victim (set=%d, way=%d)", set, way, c.pSet, c.pWay)
		}
		if set != c.pSet || way != c.pWay {
			c.violatef("OnFill(set=%d, way=%d) does not match Victim's choice (set=%d, way=%d)", set, way, c.pSet, c.pWay)
		}
		c.pending = false
		c.sawEvict = false
	}
	c.inner.OnFill(set, way, acc)
}
