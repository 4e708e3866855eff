package bench

import (
	"fmt"
	"sync"

	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
	"popt/internal/mem"
	"popt/internal/trace"
)

// Shared-artifact memoization for sweeps. Every P-OPT cell on the same
// (transpose, encoding, bits) rebuilds the same Rereference Matrix, and
// every T-OPT cell the same merged transpose — Table IV puts matrix
// construction alone at ~20% of a PageRank run, so at sweep scale the
// rebuilds dominate. An artifact cache keyed by the immutable inputs
// builds each product once and hands every cell a cheap per-run view
// (core.Table → core.Matrix, core.LineRefs shared directly); suite graphs
// are memoized one level down in package graph. Correctness rests on two
// invariants the tests pin with checksums: cached products are never
// written after construction, and a cached build is bit-identical to a
// fresh one.
//
// The cache is per-Config (each experiment driver installs its own via
// withArtifacts), not process-global: fig11 and friends generate
// throwaway graphs per call, and a global cache keyed by their adjacency
// pointers would pin them forever. Paths that *measure* build cost
// (Table4, poptsim, direct core.BuildPOPT callers) have a nil cache and
// build fresh, unchanged.

type artifacts struct {
	mu     sync.Mutex
	tables map[tableKey]*tableEntry //popt:guardedby mu
	lrs    map[lrKey]*lrEntry       //popt:guardedby mu
}

// tableKey identifies one immutable Rereference Matrix table. The
// adjacency pointer is the graph identity: suite graphs are memoized, so
// the same input yields the same pointer for every cell of a sweep.
type tableKey struct {
	adj  *graph.Adj
	nv   int
	epl  int
	kind core.Kind
	bits uint
}

type lrKey struct {
	adj *graph.Adj
	epl int
}

// Entries carry a per-key once so a thundering herd of cells needing the
// same table at sweep start builds it exactly once without serializing
// builds of *different* tables behind one lock.
//
//popt:frozen
type tableEntry struct {
	once sync.Once
	t    *core.Table //popt:guardedby once
}

//popt:frozen
type lrEntry struct {
	once sync.Once
	lr   *core.LineRefs //popt:guardedby once
}

func newArtifacts() *artifacts {
	return &artifacts{
		tables: make(map[tableKey]*tableEntry),
		lrs:    make(map[lrKey]*lrEntry),
	}
}

// table returns the memoized Rereference Matrix table for the key,
// building it on first use.
func (a *artifacts) table(k tableKey) *core.Table {
	a.mu.Lock()
	e := a.tables[k]
	if e == nil {
		e = new(tableEntry)
		a.tables[k] = e
	}
	a.mu.Unlock()
	e.once.Do(func() { e.t = core.BuildTable(k.adj, k.nv, k.epl, k.kind, k.bits) })
	return e.t
}

// lineRefs returns the memoized merged transpose for the key.
func (a *artifacts) lineRefs(k lrKey) *core.LineRefs {
	a.mu.Lock()
	e := a.lrs[k]
	if e == nil {
		e = new(lrEntry)
		a.lrs[k] = e
	}
	a.mu.Unlock()
	e.once.Do(func() { e.lr = core.BuildLineRefs(k.adj, k.epl) })
	return e.lr
}

// withArtifacts returns a copy of c carrying a fresh artifact cache;
// drivers call it once per experiment so all cells of the sweep share
// builds.
func (c Config) withArtifacts() Config {
	c.arts = newArtifacts()
	return c
}

// buildPOPT mirrors core.BuildPOPT — one Rereference Matrix per distinct
// elements-per-line, shared across the arrays (Section V-F) — but pulls
// tables from the artifact cache when one is installed, so concurrent
// cells share the encoded entries and differ only in their per-run Matrix
// views.
func (c Config) buildPOPT(refAdj *graph.Adj, numVertices int, kind core.Kind, bits uint, arrs ...*mem.Array) *core.POPT {
	if c.arts == nil {
		return core.BuildPOPT(refAdj, numVertices, kind, bits, arrs...)
	}
	streams := make([]core.Stream, len(arrs))
	byEPL := make(map[int]*core.Matrix)
	for i, arr := range arrs {
		epl := arr.ElemsPerLine()
		m := byEPL[epl]
		if m == nil {
			m = c.arts.table(tableKey{adj: refAdj, nv: numVertices, epl: epl, kind: kind, bits: bits}).NewMatrix()
			byEPL[epl] = m
		}
		streams[i] = core.Stream{Arr: arr, M: m}
	}
	return core.NewPOPT(streams...)
}

// StreamKey maps a named reference stream of g onto its corpus identity:
// the workload is the graph name plus its adjacency checksum (names alone
// are not unique — fig11's Uniform(4096, 4·4096) and the suite's
// URAND-12 share a name but not an edge list), the stream name is the
// schedule, and the config's scale/seed pin the generated input family
// and the L1/L2 shape. Exported so popttrace record pre-warms a corpus
// under exactly the keys sweeps look up.
func (c Config) StreamKey(g *graph.Graph, name string) corpus.Key {
	return corpus.Key{
		Workload: fmt.Sprintf("%s@%016x", g.Name, g.Checksum()),
		Schedule: name,
		Scale:    c.Scale.String(),
		Seed:     c.Seed,
	}
}

// cellRun is one setup of a cell under its own Config. fig16 gives each
// run its own LLC geometry; the L1/L2 shape must be the first run's, since
// every run sees the LLC-visible stream the first one produces.
type cellRun struct {
	c Config
	s Setup
}

// runSetups simulates several setups of one cell, all under c, against a
// single stream of the named (graph, stream) pair; see runCell.
func (c Config) runSetups(g *graph.Graph, name string, build func() *kernels.Workload, setups ...Setup) []Result {
	runs := make([]cellRun, len(setups))
	for i, s := range setups {
		runs[i] = cellRun{c: c, s: s}
	}
	return runCell(g, name, build, runs)
}

// runCell simulates every run of one cell against a single stream of the
// named (graph, stream) pair. The first run's Config decides where the
// stream comes from. With a corpus it is a container entry: a warm entry
// is replayed into every run (no kernel execution at all); a cold one is
// recorded by the first run's live pass, published, and replayed into
// the rest. Otherwise, or when publication fails, the kernel runs once:
// the first run simulates live and a trace.Fanout tapped onto its
// hierarchy feeds the LLC-visible stream to the others as it is produced,
// so nothing is encoded or kept. Every path gives each run exactly the
// counters of a fresh live run (golden-tested). build must construct the
// workload deterministically; it may be called more than once, since a
// failed publication consumes its workload mid-record. The (g, name)
// identity is the stream's corpus key: name must cover the kernel and its
// schedule.
func runCell(g *graph.Graph, name string, build func() *kernels.Workload, runs []cellRun) []Result {
	out := make([]Result, len(runs))
	if len(runs) == 0 {
		return out
	}
	checkUpperShape(g.Name+"/"+name, runs)
	lead := runs[0].c
	if lead.Corpus != nil && replayCorpus(g, name, build, runs, out) {
		return out
	}
	w := build()
	start := lead.phaseStart()
	fanOut(w, runs, out)
	lead.phaseDone(g.Name+"/"+name, "live", start)
	return out
}

// replayCorpus fills out from the corpus entry of (g, name), recording it
// first with runs[0] when the entry is cold. It reports false, having
// filled nothing, when a cold entry cannot be published (full disk,
// permissions): results do not depend on the corpus, only its reuse does.
func replayCorpus(g *graph.Graph, name string, build func() *kernels.Workload, runs []cellRun, out []Result) bool {
	lead := runs[0].c
	key := lead.StreamKey(g, name)
	w := build()
	ent := lead.Corpus.Lookup(key)
	first := 0
	if ent == nil {
		start := lead.phaseStart()
		res, e, err := RecordLLCToCorpus(lead, w, runs[0].s, key)
		if err != nil {
			return false
		}
		lead.phaseDone(g.Name+"/"+name, "record", start)
		out[0], ent, first = res, e, 1
	}
	for i := first; i < len(runs); i++ {
		r := runs[i]
		start := r.c.phaseStart()
		out[i] = ReplayLLCEntry(r.c, w, ent, r.s)
		r.c.phaseDone(g.Name+"/"+name+"/"+r.s.Name, "replay", start)
	}
	return true
}

// fanOut runs w's kernel once: runs[0] simulates live while a
// trace.Fanout on its hierarchy feeds every other run the LLC-visible
// stream, window by window, and finally the leader's setup-invariant
// totals.
func fanOut(w *kernels.Workload, runs []cellRun, out []Result) {
	cells := make([]builtCell, len(runs))
	sims := make([]*trace.Sim, len(runs))
	for i, r := range runs {
		cells[i] = buildCell(r.c, w, r.s)
		sims[i] = cells[i].sim()
	}
	lead := sims[0]
	f := trace.NewFanout(sims[1:]...)
	lead.Record(f)
	w.Run(kernels.NewSinkRunner(lead))
	lead.Record(nil)
	f.Finish(lead)
	for i, b := range cells {
		out[i] = b.finish(sims[i])
	}
}

// checkUpperShape panics, naming the cell, if a run's L1/L2 shape differs
// from the first run's: the LLC-visible stream depends on it, so such a
// run would be fed a stream its own hierarchy never produces.
func checkUpperShape(cell string, runs []cellRun) {
	want := runs[0].c.cacheConfig(nil)
	for _, r := range runs[1:] {
		got := r.c.cacheConfig(nil)
		if got.L1Size != want.L1Size || got.L1Ways != want.L1Ways || got.L2Size != want.L2Size || got.L2Ways != want.L2Ways {
			panic(fmt.Sprintf("bench: cell %s: %s has L1 %dB/%d-way, L2 %dB/%d-way, but the stream comes from %s with L1 %dB/%d-way, L2 %dB/%d-way",
				cell, r.s.Name, got.L1Size, got.L1Ways, got.L2Size, got.L2Ways,
				runs[0].s.Name, want.L1Size, want.L1Ways, want.L2Size, want.L2Ways))
		}
	}
}

// buildTOPT mirrors core.BuildTOPT with memoized merged transposes.
func (c Config) buildTOPT(refAdj *graph.Adj, arrs ...*mem.Array) *core.TOPT {
	if c.arts == nil {
		return core.BuildTOPT(refAdj, arrs...)
	}
	streams := make([]core.OracleStream, len(arrs))
	for i, arr := range arrs {
		streams[i] = core.OracleStream{
			Arr: arr,
			Ref: refAdj,
			LR:  c.arts.lineRefs(lrKey{adj: refAdj, epl: arr.ElemsPerLine()}),
		}
	}
	return core.NewTOPT(streams...)
}
