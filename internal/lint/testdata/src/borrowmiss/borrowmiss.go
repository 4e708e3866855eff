// Package borrowmiss is the acceptance case for borrowflow: a Victim
// that retains the borrowed tag row through a helper call. The
// syntactic policycontract analyzer sees only an innocuous call argument
// and reports nothing; borrowflow's helper summaries catch the retention.
// The // want expectations here are borrowflow's — the companion Go test
// also runs policycontract over this package and asserts it stays silent.
package borrowmiss

type Geometry struct {
	Sets, Ways, ReservedWays int
}

type Access struct{ Addr uint64 }

// Hoarder launders the borrow through a same-package helper.
type Hoarder struct {
	g     Geometry
	saved []uint64
}

func (h *Hoarder) Name() string         { return "hoarder" }
func (h *Hoarder) Bind(g Geometry)      { h.g = g }
func (h *Hoarder) OnEvict(set, way int) {}

func remember(h *Hoarder, ls []uint64) { h.saved = ls }

func (h *Hoarder) Victim(set int, tags []uint64, acc Access) int {
	remember(h, tags) // want `passes the borrowed tag row to remember, which retains it beyond the call`
	return h.g.ReservedWays
}
