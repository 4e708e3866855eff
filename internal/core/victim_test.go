package core_test

import (
	"fmt"
	"slices"
	"testing"

	"popt/internal/bench"
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
)

// victimLog records every victim its policy chooses.
type victimLog struct {
	cache.Policy
	victims []int
}

func (l *victimLog) Victim(set int, tags []uint64, acc mem.Access) int {
	w := l.Policy.Victim(set, tags, acc)
	l.victims = append(l.victims, w)
	return w
}

// tablePOPT is P-OPT's victim search over decoded Rereference Matrix
// entries (core.Table.NextRef), one table per irregular array: how the
// hardware answers, and the reference core.Matrix must match. Ties go to
// DRRIP as in core.POPT.
type tablePOPT struct {
	g       cache.Geometry
	arrs    []*mem.Array
	tables  []*core.Table
	cur     graph.V
	tie     *cache.DRRIP
	victims []int
}

func (p *tablePOPT) Name() string                        { return "P-OPT-table" }
func (p *tablePOPT) Bind(g cache.Geometry)               { p.g = g; p.tie.Bind(g) }
func (p *tablePOPT) OnHit(set, way int, acc mem.Access)  { p.tie.OnHit(set, way, acc) }
func (p *tablePOPT) OnFill(set, way int, acc mem.Access) { p.tie.OnFill(set, way, acc) }
func (p *tablePOPT) OnEvict(set, way int)                { p.tie.OnEvict(set, way) }
func (p *tablePOPT) UpdateIndex(v graph.V)               { p.cur = v }

func (p *tablePOPT) Victim(set int, tags []uint64, _ mem.Access) int {
	best, bestDist := -1, -1
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		addr := tags[w]
		i := slices.IndexFunc(p.arrs, func(a *mem.Array) bool { return addr-a.Base < a.SizeBytes() })
		if i < 0 {
			best = w // streaming data evicts first
			break
		}
		d := p.tables[i].NextRef(int((addr-p.arrs[i].Base)>>mem.LineShift), p.cur)
		if d > bestDist || d == bestDist && p.tie.RRPV(set, w) > p.tie.RRPV(set, best) {
			best, bestDist = w, d
		}
	}
	p.victims = append(p.victims, best)
	return best
}

// TestPOPTMatchesTableVictims replays each recorded tiny PR stream into
// P-OPT and into tablePOPT at every encoding, plus the 4- and 16-bit
// widths of the default one, with the reserved ways charged: every victim
// must match, in order, and so must the counters.
func TestPOPTMatchesTableVictims(t *testing.T) {
	c := bench.TinyConfig()
	encodings := []struct {
		kind core.Kind
		bits uint
	}{{core.InterIntra, 8}, {core.InterOnly, 8}, {core.SingleEpoch, 8}, {core.InterIntra, 4}, {core.InterIntra, 16}}
	for _, g := range c.Suite() {
		w := kernels.NewPageRank(g)
		_, tr := bench.RecordLLC(c, w, bench.LRUSetup())
		for _, enc := range encodings {
			t.Run(fmt.Sprintf("%s/%v/%d-bit", g.Name, enc.kind, enc.bits), func(t *testing.T) {
				var engine *victimLog
				var table *tablePOPT
				reserve := func(p *core.POPT, cfg cache.Config) int {
					return p.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
				}
				got := bench.ReplayLLC(c, w, tr, bench.Setup{Name: "P-OPT", Make: func(_ bench.Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
					p := core.BuildPOPT(w.RefAdj, w.G.NumVertices(), enc.kind, enc.bits, w.Irregular...)
					engine = &victimLog{Policy: p}
					return engine, p, reserve(p, cfg)
				}})
				want := bench.ReplayLLC(c, w, tr, bench.Setup{Name: "P-OPT", Make: func(_ bench.Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
					table = &tablePOPT{arrs: w.Irregular, tie: cache.NewDRRIP(1)}
					for _, a := range w.Irregular {
						table.tables = append(table.tables, core.BuildTable(w.RefAdj, w.G.NumVertices(), a.ElemsPerLine(), enc.kind, enc.bits))
					}
					return table, table, reserve(core.BuildPOPT(w.RefAdj, w.G.NumVertices(), enc.kind, enc.bits, w.Irregular...), cfg)
				}})
				if len(table.victims) == 0 {
					t.Fatal("the stream caused no replacement")
				}
				if len(engine.victims) != len(table.victims) {
					t.Fatalf("P-OPT chose %d victims, the table policy %d", len(engine.victims), len(table.victims))
				}
				for i, v := range table.victims {
					if engine.victims[i] != v {
						t.Fatalf("replacement %d: P-OPT evicted way %d, the table decode way %d", i, engine.victims[i], v)
					}
				}
				if a, b := got.H.LLC.Stats, want.H.LLC.Stats; a != b {
					t.Fatalf("LLC counters differ: %+v vs %+v", a, b)
				}
			})
		}
	}
}
