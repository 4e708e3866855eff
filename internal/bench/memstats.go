package bench

import (
	"fmt"

	"popt/internal/core"
	"popt/internal/mem"
	"popt/internal/trace"
)

// MemStats reports the resident footprint of the shared artifacts a sweep
// at this config would hold: per input graph, the adjacency bytes under
// the resolved layout against the plain-CSR equivalent, plus the size of
// the one preprocessing artifact P-OPT and T-OPT cells share, the merged
// transpose (core.LineRefs), built for the graph's CSC. The reref column is
// the analytic size of the paper's Rereference Matrix table: what P-OPT's
// hardware stores, which no sweep builds. The report is what -memstats
// prints and what BENCH_memory.json records; building it costs one suite
// construction, one merged transpose per graph and no simulation.
func MemStats(c Config) *Report {
	lay := c.Layout.Resolve(c.Scale)
	workers := trace.DefaultReplayWorkers()
	rep := &Report{
		ID:    "memstats",
		Title: fmt.Sprintf("resident bytes per shared artifact (scale %s, layout %s)", c.Scale, lay),
		Notes: []string{
			"adjacency = resident Out+In bytes under the resolved layout;",
			"plain-equiv = the same adjacencies as plain CSR (8(n+1)+4m per direction);",
			"reref = Rereference Matrix table at the paper's 8-bit default (one byte per entry);",
			"linerefs = merged transpose of the CSC as built for 4 B irregular elements (T-OPT artifact; each line keeps a reference once).",
			fmt.Sprintf("Corpus replay windows are bounded separately at window x chunk = %s on this host (%d workers, 2x window, %s chunks).",
				HumanBytes(uint64(2*workers*trace.DefaultChunkBytes)), workers, HumanBytes(trace.DefaultChunkBytes)),
		},
		Header: []string{"graph", "vertices", "edges", "adjacency", "plain-equiv", "ratio", "reref", "linerefs"},
	}
	epl := mem.LineSize / 4
	var adjTotal, plainTotal, rrTotal, lrTotal uint64
	for _, g := range c.Suite() {
		n, m := g.NumVertices(), g.NumEdges()
		adj := g.Out.MemBytes() + g.In.MemBytes()
		plain := 2 * (8*uint64(n+1) + 4*uint64(m))
		rr := rerefTableBytes(n, 8)
		lr := core.BuildLineRefs(&g.In, epl).MemBytes()
		adjTotal += adj
		plainTotal += plain
		rrTotal += rr
		lrTotal += lr
		rep.AddRow(g.Name,
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", m),
			HumanBytes(adj), HumanBytes(plain),
			fmt.Sprintf("%.2fx", float64(plain)/float64(adj)),
			HumanBytes(rr), HumanBytes(lr))
	}
	rep.AddRow("TOTAL", "", "",
		HumanBytes(adjTotal), HumanBytes(plainTotal),
		fmt.Sprintf("%.2fx", float64(plainTotal)/float64(adjTotal)),
		HumanBytes(rrTotal), HumanBytes(lrTotal))
	return rep
}

// rerefTableBytes is the analytic host size of core.BuildTable's entry
// matrix at the given quantization width for a 4 B-element irregular
// array: one entry per (cache line of the array) x (epoch), with
// min(2^bits, n) epochs, each entry a byte up to 8 bits and two above.
func rerefTableBytes(n int, bits uint) uint64 {
	epl := mem.LineSize / 4
	lines := (n + epl - 1) / epl
	epochs := 1 << bits
	if epochs > n {
		epochs = n
	}
	width := uint64(1)
	if bits > 8 {
		width = 2
	}
	return width * uint64(lines) * uint64(epochs)
}

// HumanBytes renders a byte count in binary units with two significant
// decimals, the form popttrace info and -memstats print.
func HumanBytes(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
