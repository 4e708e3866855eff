package main

// This file is the benchmark's only door into the simulator: every call
// into popt/internal/... is made here, and no other file imports those
// packages (TestSimulatorCallsStayInAPI enforces it). A change to the
// simulator's record/replay API edits the call sites below and leaves
// every workload and metric definition untouched.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"popt/internal/bench"
	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/perf"
	"popt/internal/trace"
)

// simConfig is the simulator configuration a workload runs under.
type simConfig struct{ c bench.Config }

// newSimConfig returns the experiment configuration for a scale name
// ("tiny", "default" or "large") with the given sweep worker count.
func newSimConfig(scale string, seed int64, workers int) (simConfig, error) {
	c := bench.Config{Seed: seed, Workers: workers}
	switch scale {
	case "tiny":
		c.Scale = graph.ScaleTiny
	case "default":
		c.Scale = graph.ScaleDefault
	case "large":
		c.Scale = graph.ScaleLarge
	default:
		return simConfig{}, fmt.Errorf("unknown scale %q", scale)
	}
	return simConfig{c}, nil
}

// onCell returns c with a sweep progress callback receiving each completed
// cell's wall time.
func (c simConfig) onCell(fn func(elapsed time.Duration)) simConfig {
	c.c.Progress = func(ev bench.CellEvent) { fn(ev.Elapsed) }
	return c
}

// graphRef is one generated input graph.
type graphRef struct{ g *graph.Graph }

func (g graphRef) name() string { return g.g.Name }

// memoizedSuite returns the suite experiments read: the first call in a
// process generates it, later calls share the same graphs.
func (c simConfig) memoizedSuite() []graphRef {
	var out []graphRef
	for _, g := range c.c.Suite() {
		out = append(out, graphRef{g})
	}
	return out
}

// uniformGraph generates fig11's uniform-random input with n vertices and
// 4n edges.
func uniformGraph(n int, seed int64) graphRef { return graphRef{graph.Uniform(n, 4*n, seed)} }

// compactLayout re-encodes g in the compact adjacency layout.
func compactLayout(g graphRef) graphRef { return graphRef{g.g.WithLayout(graph.LayoutCompact)} }

func (g graphRef) isCompact() bool { return g.g.Out.IsCompact() }

// experimentIDs lists every registered experiment in registry order.
func experimentIDs() []string {
	var ids []string
	for _, e := range bench.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// report is one rendered experiment result.
type report struct{ r *bench.Report }

// runExperiment runs one registered experiment; a failing cell panics.
func runExperiment(c simConfig, id string) report {
	e, _ := bench.ByID(id)
	return report{e.Run(c.c)}
}

// render produces both output forms poptbench prints and returns the CSV.
func (r report) render() string {
	_ = r.r.String()
	return r.r.CSV()
}

func (r report) rows() [][]string { return r.r.Rows }

// newReport builds a report from rows the benchmark assembled itself.
func newReport(id string, header []string, rows [][]string) report {
	return report{&bench.Report{ID: id, Title: id, Header: header, Rows: rows}}
}

// stream is one (kernel, graph) pair: the unit the simulator records.
type stream struct {
	b kernels.Builder
	g graphRef
}

func (s stream) name() string { return s.b.Name + "/" + s.g.name() }

// allKernelStreams pairs every paper kernel with every graph, kernel-major
// (the order fig10 enumerates cells in).
func allKernelStreams(gs []graphRef) []stream {
	var out []stream
	for _, b := range kernels.All() {
		for _, g := range gs {
			out = append(out, stream{b, g})
		}
	}
	return out
}

// pageRankStreams pairs PageRank, fig2's kernel, with every graph.
func pageRankStreams(gs []graphRef) []stream {
	pr := kernels.All()[0]
	out := make([]stream, len(gs))
	for i, g := range gs {
		out[i] = stream{pr, g}
	}
	return out
}

// workload is one freshly built kernel instance. Running it consumes its
// state; replays only read its immutable layout.
type workload struct{ w *kernels.Workload }

func (s stream) build() workload { return workload{s.b.New(s.g.g)} }

// emitOnly runs the kernel with its event stream discarded.
func emitOnly(w workload) { w.w.Run(kernels.NewSinkRunner(trace.Nop{})) }

// result is one simulated run's outcome.
type result struct{ r bench.Result }

// text renders every simulated statistic of the run, for digests and
// equality checks.
func (r result) text() string {
	h := r.r.H
	return fmt.Sprintf("%s instr=%d L1=%v L2=%v LLC=%v dram=%d/%d prefetch=%d/%d streamed=%d reserved=%d ties=%.9g",
		r.r.Policy, r.r.Instructions, h.L1.Stats, h.L2.Stats, h.LLC.Stats, h.DRAMReads, h.DRAMWrites,
		h.PrefetchIssued, h.PrefetchFills, r.r.Streamed, r.r.Reserved, r.r.TieRate)
}

func (r result) l1Accesses() uint64  { return r.r.H.L1.Stats.Accesses }
func (r result) llcAccesses() uint64 { return r.r.H.LLC.Stats.Accesses }
func (r result) mpki() float64       { return r.r.MPKI() }

// missReduction is fig10's miss column: r's LLC miss reduction over base
// in percent.
func missReduction(base, r result) float64 { return bench.MissReduction(base.r, r.r) }

// speedup is fig10's speedup column: r's modelled speedup over base.
func speedup(base, r result) float64 { return perf.Speedup(base.r.Breakdown(), r.r.Breakdown()) }

// policy is one LLC replacement setup.
type policy struct{ s bench.Setup }

func (p policy) name() string { return p.s.Name }

func lruPolicy() policy   { return policy{bench.LRUSetup()} }
func drripPolicy() policy { return policy{bench.DRRIPSetup()} }

// zooPolicies returns fig2's state-of-the-art policies after LRU.
func zooPolicies() []policy {
	return []policy{
		drripPolicy(), {bench.SHiPPCSetup()}, {bench.SHiPMemSetup()}, {bench.HawkeyeSetup()},
	}
}

// poptPolicy is P-OPT as the experiments configure it (8-bit inter+intra
// epoch entries, reserved ways charged), building its Rereference Matrix
// as part of the policy set-up.
func poptPolicy() policy { return policy{bench.POPTSetup(core.InterIntra, 8, true)} }

// runLive simulates w under LRU with no recording.
func runLive(c simConfig, w workload) result {
	return result{bench.RunWorkload(c.c, w.w, bench.LRUSetup())}
}

// llcTrace is a recorded LLC-visible stream held in memory.
type llcTrace struct{ t *trace.LLCTrace }

func (t llcTrace) events() uint64 { return t.t.Stats().Events() }
func (t llcTrace) bytes() int     { return t.t.Size() }

// digest hashes the encoded stream.
func (t llcTrace) digest() string {
	sum := sha256.Sum256(t.t.Bytes())
	return hex.EncodeToString(sum[:])
}

// recordLLC simulates w live under LRU while recording its LLC stream.
func recordLLC(c simConfig, w workload) (result, llcTrace) {
	res, tr := bench.RecordLLC(c.c, w.w, bench.LRUSetup())
	return result{res}, llcTrace{tr}
}

// replayLLC feeds a recorded stream into policy p.
func replayLLC(c simConfig, w workload, t llcTrace, p policy) result {
	return result{bench.ReplayLLC(c.c, w.w, t.t, p.s)}
}

// oracleTables are the P-OPT Rereference Matrix tables and T-OPT merged
// transposes of one workload, keyed by elements per cache line, built
// once and shared read-only by every replay the way the sweep's artifact
// cache shares them.
type oracleTables struct {
	tables map[int]*core.Table
	lrs    map[int]*core.LineRefs
}

// buildTables builds w's Rereference Matrix tables and returns their size.
func buildTables(w workload, o *oracleTables) (bytes uint64) {
	o.tables = make(map[int]*core.Table)
	for _, arr := range w.w.Irregular {
		epl := arr.ElemsPerLine()
		if o.tables[epl] == nil {
			t := core.BuildTable(w.w.RefAdj, w.w.G.NumVertices(), epl, core.InterIntra, 8)
			o.tables[epl] = t
			bytes += t.MemBytes()
		}
	}
	return bytes
}

// buildLineRefs builds w's merged transposes and returns their size.
func buildLineRefs(w workload, o *oracleTables) (bytes uint64) {
	o.lrs = make(map[int]*core.LineRefs)
	for _, arr := range w.w.Irregular {
		epl := arr.ElemsPerLine()
		if o.lrs[epl] == nil {
			lr := core.BuildLineRefs(w.w.RefAdj, epl)
			o.lrs[epl] = lr
			bytes += lr.MemBytes()
		}
	}
	return bytes
}

// poptPrebuilt is poptPolicy over tables built by buildTables.
func (o *oracleTables) poptPrebuilt() policy {
	return policy{bench.Setup{Name: "P-OPT", Make: func(_ bench.Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
		streams := make([]core.Stream, len(w.Irregular))
		byEPL := make(map[int]*core.Matrix)
		for i, arr := range w.Irregular {
			epl := arr.ElemsPerLine()
			m := byEPL[epl]
			if m == nil {
				m = o.tables[epl].NewMatrix()
				byEPL[epl] = m
			}
			streams[i] = core.Stream{Arr: arr, M: m}
		}
		p := core.NewPOPT(streams...)
		return p, p, p.ReservedWays(cfg.LLCSize / (cfg.LLCWays * 64))
	}}}
}

// toptPrebuilt is T-OPT over merged transposes built by buildLineRefs.
func (o *oracleTables) toptPrebuilt() policy {
	return policy{bench.Setup{Name: "T-OPT", Make: func(_ bench.Config, w *kernels.Workload, _ cache.Config) (cache.Policy, core.VertexIndexed, int) {
		streams := make([]core.OracleStream, len(w.Irregular))
		for i, arr := range w.Irregular {
			streams[i] = core.OracleStream{Arr: arr, Ref: w.RefAdj, LR: o.lrs[arr.ElemsPerLine()]}
		}
		p := core.NewTOPT(streams...)
		return p, p, 0
	}}}
}

// store is an open trace corpus directory.
type store struct{ s *corpus.Store }

func openStore(dir string) (store, error) {
	s, err := corpus.Open(dir)
	return store{s}, err
}

// close releases the store's open entries; closing a store that never
// opened is a no-op.
func (st store) close() error {
	if st.s == nil {
		return nil
	}
	return st.s.Close()
}

// entry is one published corpus stream.
type entry struct{ e *corpus.Entry }

// key is the corpus identity the sweeps give stream s.
func (c simConfig) key(s stream) corpus.Key { return c.c.StreamKey(s.g.g, s.b.Name) }

// recordToCorpus simulates w live under p while publishing its LLC stream
// into st under s's key.
func recordToCorpus(c simConfig, st store, s stream, w workload, p policy) (result, entry, error) {
	cfg := c.c
	cfg.Corpus = st.s
	res, e, err := bench.RecordLLCToCorpus(cfg, w.w, p.s, c.key(s))
	return result{res}, entry{e}, err
}

// get opens s's published entry.
func (st store) get(c simConfig, s stream) (entry, error) {
	e, err := st.s.Get(c.key(s))
	return entry{e}, err
}

func (e entry) verify() error           { return e.e.Reader().Verify() }
func (e entry) fileBytes() int64        { return e.e.Size }
func (e entry) maxResidentBytes() int64 { return e.e.Reader().MaxResidentBytes() }

// text renders the entry's stream identity: event count, payload size and
// stream CRC.
func (e entry) text() string {
	r := e.e.Reader()
	return fmt.Sprintf("events=%d payload=%d crc=%08x", r.Events(), r.PayloadBytes(), r.StreamCRC())
}

// replayEntry feeds a corpus stream into policy p, out of core; a damaged
// entry panics.
func replayEntry(c simConfig, w workload, e entry, p policy) result {
	return result{bench.ReplayLLCEntry(c.c, w.w, e.e, p.s)}
}
