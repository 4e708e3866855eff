// Package contract exercises the policycontract analyzer with
// self-contained replicas of the cache package's contract types: the
// ReservedWays obligation, and the borrow check's direct write, retention
// and alias shapes (package borrow covers helpers, closures, goroutines
// and the other escapes).
package contract

// Geometry mirrors cache.Geometry.
type Geometry struct {
	Sets         int
	Ways         int
	ReservedWays int
}

// Access stands in for mem.Access.
type Access struct{ Addr uint64 }

// Good is a contract-abiding policy: reads ReservedWays, never touches
// tags.
type Good struct{ g Geometry }

func (p *Good) Bind(g Geometry) { p.g = g }
func (p *Good) Victim(set int, tags []uint64, acc Access) int {
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		if tags[w] != 0 { // reading tags is fine
			return w
		}
	}
	return p.g.ReservedWays
}

// Mutator writes through the tags parameter.
type Mutator struct{ g Geometry }

func (p *Mutator) Bind(g Geometry) { p.g = g }
func (p *Mutator) Victim(set int, tags []uint64, acc Access) int {
	tags[0] = 0 // want "Victim writes the borrowed tag storage through tags"
	tags[1]++   // want "Victim writes the borrowed tag storage through tags"
	return p.g.ReservedWays
}

// AliasMutator launders the write through a local alias and a re-slice.
// Each alias is flagged where it is made, so the writes through it need
// no finding of their own.
type AliasMutator struct{ g Geometry }

func (p *AliasMutator) Bind(g Geometry) { p.g = g }
func (p *AliasMutator) Victim(set int, tags []uint64, acc Access) int {
	ls := tags // want "Victim stores an alias of the borrowed tag row in ls"
	ls[0] = 0
	sub := tags[1:] // want "Victim stores an alias of the borrowed tag row in sub"
	sub[0] |= 1
	return p.g.ReservedWays
}

// Retainer stores the borrowed slice past the call.
type Retainer struct {
	g     Geometry
	saved []uint64
}

func (p *Retainer) Bind(g Geometry) { p.g = g }
func (p *Retainer) Victim(set int, tags []uint64, acc Access) int {
	p.saved = tags // want "Victim stores an alias of the borrowed tag row in p.saved"
	return p.g.ReservedWays
}

// PtrTaker takes pointers into the borrowed row. Each &tags[i] is an
// alias, flagged where it is taken, whatever is later done through it.
type PtrTaker struct {
	g   Geometry
	ptr *uint64
}

func (p *PtrTaker) Bind(g Geometry) { p.g = g }
func (p *PtrTaker) Victim(set int, tags []uint64, acc Access) int {
	r := &tags[0] // want "Victim stores an alias of the borrowed tag row in r"
	_ = *r
	q := &tags[1] // want "Victim stores an alias of the borrowed tag row in q"
	*q = 1
	p.ptr = &tags[2] // want "Victim stores an alias of the borrowed tag row in p.ptr"
	return p.g.ReservedWays
}

// Oblivious never consults ReservedWays anywhere.
type Oblivious struct{ n int }

func (p *Oblivious) Bind(g Geometry) { p.n = g.Ways } // want "no method reads Geometry.ReservedWays"
func (p *Oblivious) Victim(set int, tags []uint64, acc Access) int {
	return 0
}

// base holds shared state; embedders inherit its ReservedWays read.
type base struct{ g Geometry }

func (b *base) Bind(g Geometry) { b.g = g }
func (b *base) pick() int       { return b.g.ReservedWays }

// Embedder satisfies the ReservedWays obligation via its embedded base.
type Embedder struct{ base }

func (p *Embedder) Victim(set int, tags []uint64, acc Access) int { return p.pick() }

// Delegator forwards victim selection; the delegate carries the
// obligation.
type Delegator struct {
	inner *Good
	n     int
}

func (p *Delegator) Bind(g Geometry) { p.n = g.Ways; p.inner.Bind(g) }
func (p *Delegator) Victim(set int, tags []uint64, acc Access) int {
	return p.inner.Victim(set, tags, acc)
}

// NotAPolicy has a Victim-shaped method but no Bind; only the borrow
// check applies, not the ReservedWays obligation.
type NotAPolicy struct{}

func (p *NotAPolicy) Victim(set int, tags []uint64, acc Access) int {
	tags[0] = 1 // want "Victim writes the borrowed tag storage through tags"
	return 0
}

// Allowed shows directive suppression for a deliberate violation (e.g. a
// test fake built to trip the runtime checker).
type Allowed struct{ g Geometry }

func (p *Allowed) Bind(g Geometry) { p.g = g }
func (p *Allowed) Victim(set int, tags []uint64, acc Access) int {
	//lint:allow policycontract
	tags[0] = 1
	return p.g.ReservedWays
}
