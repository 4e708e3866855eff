package bench

import (
	"testing"

	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
)

// TestMemStatsAnalyticSizes pins the -memstats sizes to what they
// describe: the Rereference Matrix table built for a suite graph must
// occupy exactly the bytes the analytic formula claims, and the merged
// transpose the report builds must hold one offset per line plus one 4 B
// reference per distinct (line, vertex) pair, counted here with a map.
func TestMemStatsAnalyticSizes(t *testing.T) {
	for _, g := range graph.Suite(graph.ScaleTiny, 42) {
		n := g.NumVertices()
		epl := mem.LineSize / 4
		for _, bits := range []uint{8, 16} {
			tab := core.BuildTable(&g.In, n, epl, core.InterIntra, bits)
			if got, want := tab.MemBytes(), rerefTableBytes(n, bits); got != want {
				t.Errorf("%s: %d-bit Table.MemBytes() = %d, analytic %d", g.Name, bits, got, want)
			}
		}
		type lineRef struct {
			line int
			v    graph.V
		}
		distinct := map[lineRef]bool{}
		for v := 0; v < n; v++ {
			for _, u := range g.In.Neighs(graph.V(v)) {
				distinct[lineRef{v / epl, u}] = true
			}
		}
		lines := (n + epl - 1) / epl
		want := 8*uint64(lines+1) + 4*uint64(len(distinct))
		if got := core.BuildLineRefs(&g.In, epl).MemBytes(); got != want {
			t.Errorf("%s: LineRefs.MemBytes() = %d, distinct references give %d", g.Name, got, want)
		}
		if len(distinct) == g.NumEdges() {
			t.Errorf("%s: no line shares a reference, so the count shows nothing", g.Name)
		}
	}
}

// TestMemStatsReport sanity-checks the report itself: one row per suite
// graph plus a TOTAL, and a compact-layout report must show a ratio
// above 1 while plain shows exactly the plain-equivalent bytes.
func TestMemStatsReport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = graph.ScaleTiny
	cfg.Layout = graph.LayoutCompact
	rep := MemStats(cfg)
	if want := len(graph.Suite(graph.ScaleTiny, cfg.Seed)) + 1; len(rep.Rows) != want {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), want)
	}
	total := rep.Rows[len(rep.Rows)-1]
	if total[0] != "TOTAL" {
		t.Fatalf("last row is %q, want TOTAL", total[0])
	}
	if total[3] == total[4] {
		t.Errorf("compact TOTAL adjacency %q equals plain equivalent %q", total[3], total[4])
	}
	cfg.Layout = graph.LayoutPlain
	plain := MemStats(cfg)
	ptotal := plain.Rows[len(plain.Rows)-1]
	if ptotal[3] != ptotal[4] {
		t.Errorf("plain TOTAL adjacency %q != plain equivalent %q", ptotal[3], ptotal[4])
	}
}
