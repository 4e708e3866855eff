// Package lintmod is a miniature module with a deliberate borrow
// violation in a cache.Policy-shaped Victim, used by the poptlint command
// tests to exercise the findings exit code and diagnostic formatting.
// It contains no //popt:hot functions, which the -hotpath tests rely on.
package lintmod

type Geometry struct{ Sets, Ways, ReservedWays int }

type Access struct{ Addr uint64 }

var leaked []uint64

type Leaky struct{ g Geometry }

func (p *Leaky) Name() string         { return "leaky" }
func (p *Leaky) Bind(g Geometry)      { p.g = g }
func (p *Leaky) OnEvict(set, way int) {}
func (p *Leaky) OnHit(set, way int)   {}
func (p *Leaky) OnFill(set, way int)  {}

func (p *Leaky) Victim(set int, tags []uint64, acc Access) int {
	leaked = tags
	return p.g.ReservedWays
}
