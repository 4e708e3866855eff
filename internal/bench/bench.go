// Package bench regenerates every table and figure of the paper's
// evaluation (Section VII). Each experiment is a named driver that builds
// workloads, runs them under the relevant policy setups, and reports the
// same rows/series the paper plots. Experiment IDs mirror the paper:
// fig2..fig16, table1..table4.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/perf"
	"popt/internal/trace"
)

// Config selects the input scale and cache shape for a run.
type Config struct {
	Scale graph.Scale
	Seed  int64
	// Layout selects the adjacency storage the suite is built with:
	// LayoutAuto (zero value) resolves to compact at ScaleLarge and plain
	// elsewhere; poptbench -layout overrides it. Reports are byte-identical
	// across layouts — kernels consume the layout-neutral Adj API.
	Layout graph.Layout
	// Cache returns the hierarchy configuration for an LLC policy; when
	// nil, the scale-matched default is used.
	Cache func(llc func() cache.Policy) cache.Config
	// CheckPolicies wraps every LLC policy in cache.NewCheckedPolicy,
	// panicking on Policy-contract violations. Costs one lines-snapshot
	// per eviction; meant for tests and -check runs, not large sweeps.
	CheckPolicies bool
	// Workers bounds the sweep engine's cell parallelism: 0 means
	// GOMAXPROCS, 1 forces serial execution. Reports are byte-identical
	// at every worker count; see sweep.go.
	Workers int
	// Progress, when non-nil, receives one event per completed sweep
	// cell (poptbench -progress wires it to stderr).
	Progress func(CellEvent)
	// PhaseProgress, when non-nil, receives one event per completed
	// sub-phase of a cell — its one live or record pass, or each setup's
	// replay of a warm corpus entry — so large-scale runs, where a single
	// pass can take minutes, show a heartbeat between cell completions.
	// Events are host-side observability only; reports never depend on
	// them. Callbacks may arrive concurrently from sweep workers.
	PhaseProgress func(PhaseEvent)
	// Corpus, when non-nil, persists recorded LLC streams as chunked
	// container files keyed by (workload, schedule, scale, seed) and
	// replays them out of core across processes: a cold key is written by
	// the cell's one live pass, a warm key replays into every setup (a
	// warm corpus skips every record phase of a sweep), and a failed
	// publication drops only the entry. Streams are keyed by the inputs
	// that shape the recorded bytes — the scale name covers the L1/L2
	// shape (only fig16 varies the cache within an experiment, and it
	// varies just the LLC geometry, which the stream does not depend on).
	// Reports are byte-identical with or without a corpus (golden-tested).
	Corpus *corpus.Store
	// arts memoizes immutable build products (the merged transposes
	// P-OPT and T-OPT share) across the cells of one experiment; nil
	// means build fresh per cell. Installed by withArtifacts.
	arts *artifacts
}

// DefaultConfig is the standard experiment configuration.
func DefaultConfig() Config { return Config{Scale: graph.ScaleDefault, Seed: 42} }

// TinyConfig is a fast configuration for tests and benchmarks.
func TinyConfig() Config { return Config{Scale: graph.ScaleTiny, Seed: 42} }

func (c Config) cacheConfig(llc func() cache.Policy) cache.Config {
	if c.Cache != nil {
		return c.Cache(llc)
	}
	switch c.Scale {
	case graph.ScaleTiny:
		return cache.Config{
			L1Size: 1 << 10, L1Ways: 4,
			L2Size: 4 << 10, L2Ways: 4,
			LLCSize: 16 << 10, LLCWays: 16,
			LLCPolicy: llc,
		}
	case graph.ScaleLarge:
		return cache.TableI(llc)
	default:
		return cache.Scaled(llc)
	}
}

// Suite returns the input graphs for the config.
func (c Config) Suite() []*graph.Graph { return graph.SuiteLayout(c.Scale, c.Seed, c.Layout) }

// Report is a rendered experiment result.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// CSV renders the report as comma-separated values (header row first).
// Cells containing commas or quotes are quoted.
func (r *Report) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
}

// String renders an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "   %s\n", n)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	return sb.String()
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(c Config) *Report
}

// registry builds the sorted experiment list exactly once; Registry and
// ByID used to rebuild (and re-sort) it per call.
var registry = sync.OnceValue(func() []Experiment {
	exps := []Experiment{
		{"fig2", "LLC MPKI across state-of-the-art policies (PageRank)", Fig2},
		{"fig4", "T-OPT vs. state-of-the-art policies (PageRank MPKI)", Fig4},
		{"fig7", "Rereference Matrix designs vs. T-OPT (miss reduction over DRRIP)", Fig7},
		{"fig10", "Speedups and LLC miss reductions with P-OPT and T-OPT", Fig10},
		{"fig11", "P-OPT vs. P-OPT-SE across graph sizes", Fig11},
		{"fig12a", "P-OPT vs. GRASP on DBG-ordered graphs", Fig12a},
		{"fig12b", "P-OPT vs. HATS-BDFS", Fig12b},
		{"fig13", "P-OPT and CSR-segmenting (tiling) interaction", Fig13},
		{"fig14", "P-OPT with Propagation Blocking and PHI", Fig14},
		{"fig15", "Sensitivity to quantization width", Fig15},
		{"fig16", "Sensitivity to LLC size and associativity", Fig16},
		{"table1", "Simulation parameters", Table1},
		{"table2", "Applications", Table2},
		{"table3", "Input graphs", Table3},
		{"table4", "Rereference Matrix preprocessing cost", Table4},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
})

// byID indexes the registry for O(1) lookup.
var byID = sync.OnceValue(func() map[string]Experiment {
	m := make(map[string]Experiment, len(registry()))
	for _, e := range registry() {
		m[e.ID] = e
	}
	return m
})

// Registry returns every experiment, sorted by ID. The returned slice is
// a copy; callers may reorder it.
func Registry() []Experiment {
	exps := registry()
	out := make([]Experiment, len(exps))
	copy(out, exps)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := byID()[id]
	return e, ok
}

// Result captures one simulated run for reporting.
type Result struct {
	Policy string
	H      *cache.Hierarchy
	// Instructions is the retired-instruction count, owned by the run's
	// trace.Sim (identical whether the stream was live or replayed).
	Instructions uint64
	Streamed     uint64  // Rereference Matrix bytes (P-OPT only)
	Reserved     int     // reserved LLC ways
	TieRate      float64 // P-OPT tie rate
}

// MPKI returns the run's LLC misses per kilo-instruction, the paper's
// primary locality metric (Fig. 2, 4).
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.H.LLC.Stats.Misses) / (float64(r.Instructions) / 1000)
}

// Breakdown models the run's cycles.
func (r Result) Breakdown() perf.Breakdown {
	return perf.Model(r.H, r.Instructions, r.Streamed, perf.Default())
}

// MissReduction returns the relative LLC miss reduction of r vs. base in
// percent (positive = fewer misses).
func MissReduction(base, r Result) float64 {
	b := float64(base.H.LLC.Stats.Misses)
	if b == 0 {
		return 0
	}
	return 100 * (b - float64(r.H.LLC.Stats.Misses)) / b
}

// Setup names a policy configuration applicable to any workload.
type Setup struct {
	Name string
	// Make builds the LLC policy for workload w under the given cache
	// configuration; it returns the policy, the update_index hook (nil if
	// unused), and the number of reserved ways. The Config carries the
	// run context — in particular the sweep's artifact cache, which lets
	// P-OPT/T-OPT setups reuse memoized merged transposes instead of
	// rebuilding them per cell.
	Make func(c Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int)
}

// Plain wraps a workload-independent policy constructor.
func Plain(name string, mk func() cache.Policy) Setup {
	return Setup{Name: name, Make: func(Config, *kernels.Workload, cache.Config) (cache.Policy, core.VertexIndexed, int) {
		return mk(), nil, 0
	}}
}

// LRUSetup and friends are the baseline policy zoo.
func LRUSetup() Setup    { return Plain("LRU", func() cache.Policy { return cache.NewLRU() }) }
func DRRIPSetup() Setup  { return Plain("DRRIP", func() cache.Policy { return cache.NewDRRIP(1) }) }
func SHiPPCSetup() Setup { return Plain("SHiP-PC", func() cache.Policy { return cache.NewSHiPPC() }) }
func SHiPMemSetup() Setup {
	return Plain("SHiP-Mem", func() cache.Policy { return cache.NewSHiPMem() })
}
func HawkeyeSetup() Setup { return Plain("Hawkeye", func() cache.Policy { return cache.NewHawkeye() }) }

// TOPTSetup builds the idealized transpose oracle.
func TOPTSetup() Setup {
	return Setup{Name: "T-OPT", Make: func(c Config, w *kernels.Workload, _ cache.Config) (cache.Policy, core.VertexIndexed, int) {
		p := c.buildTOPT(w.RefAdj, w.Irregular...)
		return p, p, 0
	}}
}

// POPTSetup builds P-OPT with the given encoding and width. When
// chargeWays is false the reserved-way capacity cost is omitted (the
// paper's limit-case studies, Fig. 7 and 15, do this).
func POPTSetup(kind core.Kind, bits uint, chargeWays bool) Setup {
	name := "P-OPT"
	switch kind {
	case core.InterOnly:
		name = "P-OPT-inter-only"
	case core.SingleEpoch:
		name = "P-OPT-SE"
	}
	if bits != 8 {
		name = fmt.Sprintf("%s-%db", name, bits)
	}
	return Setup{Name: name, Make: func(c Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
		p := c.buildPOPT(w.RefAdj, w.G.NumVertices(), kind, bits, w.Irregular...)
		reserve := 0
		if chargeWays {
			reserve = p.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
		}
		return p, p, reserve
	}}
}

// builtCell is one policy setup instantiated for a workload: the
// hierarchy, the update_index hook, and the raw policy for P-OPT metric
// extraction. Live runs, recording runs, and replays all start from the
// same built cell and differ only in how events reach its Sim.
type builtCell struct {
	name    string
	h       *cache.Hierarchy
	hook    core.VertexIndexed
	rawPol  cache.Policy
	reserve int
}

// buildCell instantiates setup s for workload w under c's cache config.
func buildCell(c Config, w *kernels.Workload, s Setup) builtCell {
	var pol cache.Policy
	cfg := c.cacheConfig(func() cache.Policy { return pol })
	rawPol, hook, reserve := s.Make(c, w, cfg)
	pol = rawPol
	if c.CheckPolicies {
		// Wrap only the Policy seat: optional hook interfaces (epoch
		// resets, tile switches) are dispatched on `hook`, which stays the
		// raw policy, so checking never changes simulated behavior.
		pol = cache.NewCheckedPolicy(rawPol)
	}
	if reserve >= cfg.LLCWays {
		reserve = cfg.LLCWays - 1 // metadata would swamp the LLC; saturate
	}
	h := cache.NewHierarchy(cfg)
	if reserve > 0 {
		h.ReserveLLC(reserve)
	}
	return builtCell{name: s.Name, h: h, hook: hook, rawPol: rawPol, reserve: reserve}
}

// sim builds the cell's live sink.
func (b builtCell) sim() *trace.Sim { return trace.NewSim(b.h, b.hook) }

// finish packages the cell's state after its stream has been consumed.
func (b builtCell) finish(sim *trace.Sim) Result {
	res := Result{Policy: b.name, H: b.h, Instructions: sim.Instructions, Reserved: b.reserve}
	if p, ok := b.rawPol.(*core.POPT); ok {
		res.Streamed = p.BytesStreamed
		res.TieRate = p.TieRate()
	}
	return res
}

// livePass runs w's kernel once and simulates every run on its stream:
// runs[0] simulates live, and rec, when non-nil, records the LLC-visible
// stream it produces. With more than one run a trace.Fanout takes rec's
// seat on the leader and feeds each window of the stream to rec and to
// every other run. This is the one kernel pass behind RunWorkload,
// RecordLLC, RecordLLCToCorpus and every sweep cell that does not replay
// a corpus entry.
func livePass(w *kernels.Workload, runs []cellRun, rec trace.Recorder) []Result {
	cells := make([]builtCell, len(runs))
	sims := make([]*trace.Sim, len(runs))
	for i, r := range runs {
		cells[i] = buildCell(r.c, w, r.s)
		sims[i] = cells[i].sim()
	}
	lead := sims[0]
	var f *trace.Fanout
	if len(runs) > 1 {
		f = trace.NewFanout(rec, sims[1:]...)
		rec = f
	}
	lead.Record(rec)
	w.Run(kernels.NewSinkRunner(lead))
	lead.Record(nil)
	if f != nil {
		f.Finish(lead)
	}
	out := make([]Result, len(runs))
	for i, b := range cells {
		out[i] = b.finish(sims[i])
	}
	return out
}

// publishPass is livePass inside a corpus publication of key: a chunked
// encoder records the pass's LLC-visible stream straight into the entry
// (never materialized in memory as one buffer). When the publication
// fails, out still holds the pass's results if the pass ran, and is nil
// if the store could not start the entry.
func publishPass(w *kernels.Workload, runs []cellRun, key corpus.Key) (out []Result, ent *corpus.Entry, err error) {
	ent, err = runs[0].c.Corpus.Publish(key, func(cw *trace.ContainerWriter) error {
		enc := trace.NewChunkedLLCEncoder(cw)
		out = livePass(w, runs, enc)
		lead := out[0]
		return enc.Finish(lead.Instructions, lead.H.L1.Stats, lead.H.L2.Stats)
	})
	return out, ent, err
}

// RunWorkload simulates one (workload, setup) pair under c's cache config
// and returns the result. The workload must be freshly built (its state is
// consumed).
func RunWorkload(c Config, w *kernels.Workload, s Setup) Result {
	return livePass(w, []cellRun{{c: c, s: s}}, nil)[0]
}

// RecordLLC simulates one (workload, setup) pair live while recording the
// LLC-visible stream — the paper's own trace form: the demand accesses
// that miss L2, the writebacks they push down, and the hook events
// between them. The reference stream depends only on the workload (graph
// + schedule), never on the policy setup — hooks and filters observe the
// stream without steering kernel control flow — and L1/L2 run fixed
// Bit-PLRU and are never back-invalidated, so this stream (and the
// instruction and L1/L2 statistic totals riding in the trace) is
// identical under every LLC policy; ReplayLLC feeds it to any other setup
// touching only the LLC.
func RecordLLC(c Config, w *kernels.Workload, s Setup) (Result, *trace.LLCTrace) {
	enc := trace.NewLLCEncoder()
	res := livePass(w, []cellRun{{c: c, s: s}}, enc)[0]
	return res, enc.Trace(res.Instructions, res.H.L1.Stats, res.H.L2.Stats)
}

// ReplayLLC feeds a recorded LLC-visible stream into setup s, simulating
// only the LLC (the trace's L1/L2 statistics and instruction totals are
// installed verbatim). Results are byte-identical to a live run — the
// replay-equivalence golden pins this across the policy zoo. w is only
// consulted for its immutable build inputs (graph, transpose, irregular
// array layout — what Setup.Make needs); its kernel state is not run, so
// one consumed workload can serve any number of replays.
func ReplayLLC(c Config, w *kernels.Workload, tr *trace.LLCTrace, s Setup) Result {
	b := buildCell(c, w, s)
	sim := b.sim()
	tr.Replay(sim)
	return b.finish(sim)
}

// RecordLLCToCorpus is RecordLLC's persistent form: the LLC-visible
// stream goes through a chunked container encoder straight into the
// corpus, and the published entry replays the same stream in this or any
// later process. The recording run's own result is returned alongside the
// entry, whose bytes equal those a cold sweep cell writes with other
// setups following the same pass (runCell).
func RecordLLCToCorpus(c Config, w *kernels.Workload, s Setup, key corpus.Key) (Result, *corpus.Entry, error) {
	out, ent, err := publishPass(w, []cellRun{{c: c, s: s}}, key)
	if err != nil {
		return Result{}, nil, err
	}
	return out[0], ent, nil
}

// ReplayLLCEntry feeds a corpus-resident LLC stream into setup s,
// decoding chunks out of core (resident memory stays bounded by the
// reader's chunk window, not the stream size). Results are byte-identical
// to ReplayLLC of the same stream: the container replay preserves the
// probe sequence and hook-mark positions exactly.
func ReplayLLCEntry(c Config, w *kernels.Workload, ent *corpus.Entry, s Setup) Result {
	b := buildCell(c, w, s)
	sim := b.sim()
	if err := ent.Reader().ReplayLLC(sim); err != nil {
		// The entry was validated at open and Publish; damage appearing
		// between open and replay is corruption mid-run, not a condition a
		// sweep cell can recover from.
		panic(fmt.Sprintf("bench: corpus replay of %s: %v", ent.Path, err))
	}
	return b.finish(sim)
}

// pct formats a percentage.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", x) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// SDBPSetup builds the dead-block-prediction baseline (related work).
func SDBPSetup() Setup { return Plain("SDBP", func() cache.Policy { return cache.NewSDBP() }) }

// DIPSetup builds the adaptive-insertion baseline.
func DIPSetup() Setup { return Plain("DIP", func() cache.Policy { return cache.NewDIP(1) }) }

// AllBaselineSetups returns the full policy zoo, useful for tools.
func AllBaselineSetups() []Setup {
	return []Setup{
		LRUSetup(), DIPSetup(), DRRIPSetup(), SHiPPCSetup(), SHiPMemSetup(),
		HawkeyeSetup(), SDBPSetup(),
	}
}
