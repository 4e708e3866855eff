// Package borrow exercises policycontract's borrow check on the ways the
// borrowed tag row escapes Victim: helper calls, locals, closures,
// goroutines, channels and package variables. Each is flagged where
// Victim names tags, never further down an alias.
package borrow

type Geometry struct {
	Sets, Ways, ReservedWays int
}

type Access struct{ Addr uint64 }

// --- delegation through a method helper that retains --------------------

type Keeper struct {
	g     Geometry
	saved []uint64
}

func (k *Keeper) Bind(g Geometry) { k.g = g }

func (k *Keeper) stash(ls []uint64) { k.saved = ls }

func (k *Keeper) Victim(set int, tags []uint64, acc Access) int {
	k.stash(tags) // want `passes the borrowed tag row to stash;`
	return k.g.ReservedWays
}

// --- retention through a free helper -----------------------------------

type Hoarder struct {
	g     Geometry
	saved []uint64
}

func (h *Hoarder) Bind(g Geometry) { h.g = g }

func remember(h *Hoarder, ls []uint64) { h.saved = ls }

func (h *Hoarder) Victim(set int, tags []uint64, acc Access) int {
	remember(h, tags) // want `passes the borrowed tag row to remember;`
	return h.g.ReservedWays
}

// --- embedding: the retaining helper lives on an embedded type ---------

type stashBase struct {
	kept []uint64
}

func (s *stashBase) keep(ls []uint64) { s.kept = ls }

type Embedder struct {
	stashBase
	g Geometry
}

func (e *Embedder) Bind(g Geometry) { e.g = g }

func (e *Embedder) Victim(set int, tags []uint64, acc Access) int {
	e.keep(tags) // want `passes the borrowed tag row to keep;`
	return e.g.ReservedWays
}

// --- helper that writes through its parameter --------------------------

type Scrubber struct {
	g Geometry
}

func (s *Scrubber) Bind(g Geometry) { s.g = g }

func scrub(ls []uint64) {
	for i := range ls {
		ls[i] = 0
	}
}

func (s *Scrubber) Victim(set int, tags []uint64, acc Access) int {
	scrub(tags) // want `passes the borrowed tag row to scrub;`
	return s.g.ReservedWays
}

// --- helper returning an alias that is then retained --------------------

type Identity struct {
	g    Geometry
	held []uint64
}

func (p *Identity) Bind(g Geometry) { p.g = g }

func tail(ls []uint64) []uint64 { return ls[1:] }

func (p *Identity) Victim(set int, tags []uint64, acc Access) int {
	t := tail(tags) // want `passes the borrowed tag row to tail;`
	p.held = t
	return p.g.ReservedWays
}

// --- an alias is flagged where it is made, even if it is dropped --------

type Killer struct {
	g    Geometry
	held []uint64
}

func (p *Killer) Bind(g Geometry) { p.g = g }

func (p *Killer) Victim(set int, tags []uint64, acc Access) int {
	x := tags // want `stores an alias of the borrowed tag row in x;`
	x = nil
	p.held = x
	return p.g.ReservedWays
}

// --- direct writes through chained local aliases ------------------------

type ChainWriter struct {
	g Geometry
}

func (p *ChainWriter) Bind(g Geometry) { p.g = g }

func (p *ChainWriter) Victim(set int, tags []uint64, acc Access) int {
	a := tags[p.g.ReservedWays:] // want `stores an alias of the borrowed tag row in a;`
	b := a
	b[0] = 0
	return p.g.ReservedWays
}

// --- append and copy into the borrow ------------------------------------

type Appender struct {
	g Geometry
}

func (p *Appender) Bind(g Geometry) { p.g = g }

func (p *Appender) Victim(set int, tags []uint64, acc Access) int {
	_ = append(tags[:0], 0) // want `appends to the borrowed tag row`
	scratch := make([]uint64, len(tags))
	copy(scratch, tags) // clean: reading the borrow out is fine
	copy(tags, scratch) // want `copies into the borrowed tag row`
	return p.g.ReservedWays
}

// --- closure capture stored on the policy -------------------------------

type Closer struct {
	g  Geometry
	cb func() int
}

func (p *Closer) Bind(g Geometry) { p.g = g }

func (p *Closer) Victim(set int, tags []uint64, acc Access) int {
	p.cb = func() int { return len(tags) } // want `stores an alias of the borrowed tag row in p.cb`
	return p.g.ReservedWays
}

// --- goroutine escape ----------------------------------------------------

type GoRunner struct {
	g Geometry
}

func (p *GoRunner) Bind(g Geometry) { p.g = g }

func (p *GoRunner) Victim(set int, tags []uint64, acc Access) int {
	go func() {
		for i := range tags { // want `hands an alias of the borrowed tag row to a goroutine`
			_ = tags[i]
		}
	}()
	return p.g.ReservedWays
}

// --- package-level retention ---------------------------------------------

var leaked []uint64

type GlobalLeaker struct {
	g Geometry
}

func (p *GlobalLeaker) Bind(g Geometry) { p.g = g }

func (p *GlobalLeaker) Victim(set int, tags []uint64, acc Access) int {
	leaked = tags // want `stores an alias of the borrowed tag row in leaked;`
	return p.g.ReservedWays
}

// --- interface delegation transfers the obligation (clean) ---------------

type Policy interface {
	Victim(set int, tags []uint64, acc Access) int
}

type Delegator struct {
	g     Geometry
	inner Policy
}

func (p *Delegator) Bind(g Geometry) { p.g = g }

func (p *Delegator) Victim(set int, tags []uint64, acc Access) int {
	return p.inner.Victim(set, tags, acc) // clean: the delegate inherits the borrow contract
}

// --- value reads are clean; a helper call is not, even a reading one -----

type Reader struct {
	g    Geometry
	last uint64
}

func (p *Reader) Bind(g Geometry) { p.g = g }

func degree(ls []uint64) int { return len(ls) } // reads only, yet still a helper

func (p *Reader) Victim(set int, tags []uint64, acc Access) int {
	best := p.g.ReservedWays
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		tag := tags[w] // value copy, safe
		if tag < tags[best] {
			best = w
		}
	}
	p.last = tags[best] // scalar copy out of the borrow, safe
	_ = degree(tags)    // want `passes the borrowed tag row to degree;`
	return best
}

// --- helper chains: retention two hops away ------------------------------

type DeepKeeper struct {
	g    Geometry
	pile [][]uint64
}

func (p *DeepKeeper) Bind(g Geometry) { p.g = g }

func (p *DeepKeeper) hoard(ls []uint64) { p.pile = append(p.pile, ls) }

func (p *DeepKeeper) relay(ls []uint64) { p.hoard(ls) }

func (p *DeepKeeper) Victim(set int, tags []uint64, acc Access) int {
	p.relay(tags) // want `passes the borrowed tag row to relay;`
	return p.g.ReservedWays
}

// --- the other accepted forms, and the other escapes ---------------------

type Forms struct {
	g    Geometry
	snap []uint64
	out  chan []uint64
}

func (p *Forms) Bind(g Geometry) { p.g = g }

func consume(ls []uint64) {}

func (p *Forms) Victim(set int, tags []uint64, acc Access) int {
	p.snap = append(p.snap[:0], tags...) // clean: copies the tags out
	_ = cap(tags) + len((tags))          // clean
	_ = (tags)[0]                        // clean: a read through parentheses
	for _, tags[1] = range p.snap {      // want `writes the borrowed tag storage through tags`
	}
	var v = tags // want `in a form the borrow check does not accept`
	_ = v
	p.out <- tags            // want `in a form the borrow check does not accept`
	go consume(tags)         // want `hands an alias of the borrowed tag row to a goroutine`
	func() { _ = tags[0] }() // want `in a form the borrow check does not accept`
	_ = [][]uint64{tags}     // want `in a form the borrow check does not accept`
	_ = []uint64(tags)       // want `in a form the borrow check does not accept`
	return p.g.ReservedWays
}
