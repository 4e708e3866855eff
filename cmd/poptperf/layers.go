package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// layerRun is what the traced run's per-layer calls produced, summed over
// the workload's streams.
type layerRun struct {
	// Record path, over recStreams, keyed by stream name.
	l1Accesses, llcEvents, traceBytes uint64
	recOrder                          []string
	live, recText, recDigest          map[string]string

	// Replay path, over repStreams.
	repOrder      []stream
	policies      []string // replay policies after LRU, in report order
	repEvents     uint64
	tableBytes    uint64
	lineRefsBytes uint64
	replays       map[string]map[string]result // stream name -> policy name -> result
	corpusBytes   int64
	maxResident   int64
	entryText     map[string]string
	// containerLRU is the LRU replay of each stream read back from the
	// corpus.
	containerLRU map[string]string
}

// runLayers calls each simulator layer separately on the workload's
// streams. Emit-only runs and LRU replays exist only so another layer can
// be measured by difference and are marked as such.
func runLayers(wd *workloadDef, e *env, tr *tracer) (*layerRun, error) {
	tr.phase = phaseLayers
	l := &layerRun{
		live:         make(map[string]string),
		recText:      make(map[string]string),
		recDigest:    make(map[string]string),
		replays:      make(map[string]map[string]result),
		entryText:    make(map[string]string),
		containerLRU: make(map[string]string),
	}
	replayed := make(map[string]bool)
	for _, s := range wd.repStreams(e) {
		replayed[s.name()] = true
	}
	dir := filepath.Join(e.dir, "layers")
	st, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	var corpusWorkloads []workload
	for _, s := range wd.recStreams(e) {
		var emitW, liveW, recW workload
		tr.do("kernels.build", func() { emitW, liveW, recW = s.build(), s.build(), s.build() })
		tr.diff("kernels.emit", func() { emitOnly(emitW) })
		var live, rec result
		var t llcTrace
		tr.do("cache.live", func() { live = runLive(e.cfg, liveW) })
		tr.do("trace.record", func() { rec, t = recordLLC(e.cfg, recW) })
		l.l1Accesses += live.l1Accesses()
		l.llcEvents += t.events()
		l.traceBytes += uint64(t.bytes())
		l.recOrder = append(l.recOrder, s.name())
		tr.do("poptperf.check", func() {
			l.live[s.name()] = live.text()
			l.recText[s.name()] = rec.text()
			l.recDigest[s.name()] = digestOf(rec.text(), t.digest())
		})
		if !replayed[s.name()] {
			continue
		}

		l.repOrder = append(l.repOrder, s)
		l.repEvents += t.events()
		if !s.g.isCompact() {
			tr.do("graph.compact", func() { _ = compactLayout(s.g) })
		}
		var o oracleTables
		tr.do("core.table", func() { l.tableBytes += buildTables(recW, &o) })
		tr.do("core.linerefs", func() { l.lineRefsBytes += buildLineRefs(recW, &o) })
		res := make(map[string]result)
		tr.diff("cache.replay.LRU", func() { res["LRU"] = replayLLC(e.cfg, recW, t, lruPolicy()) })
		l.policies = nil
		for _, p := range append(zooPolicies(), o.poptPrebuilt(), o.toptPrebuilt()) {
			tr.do("cache.replay."+p.name(), func() { res[p.name()] = replayLLC(e.cfg, recW, t, p) })
			l.policies = append(l.policies, p.name())
		}
		l.replays[s.name()] = res

		var corpusW workload
		tr.do("kernels.build", func() { corpusW = s.build() })
		tr.do("corpus.write", func() { _, _, err = recordToCorpus(e.cfg, st, s, corpusW, lruPolicy()) })
		if err != nil {
			st.close()
			return nil, err
		}
		corpusWorkloads = append(corpusWorkloads, corpusW)
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	// Read the corpus back through a fresh store, as a later process would.
	entries := make([]entry, len(l.repOrder))
	tr.do("corpus.open", func() {
		if st, err = openStore(dir); err != nil {
			return
		}
		for i, s := range l.repOrder {
			if entries[i], err = st.get(e.cfg, s); err != nil {
				return
			}
		}
	})
	defer st.close()
	if err != nil {
		return nil, err
	}
	for i, s := range l.repOrder {
		ent := entries[i]
		tr.do("trace.verify", func() { err = ent.verify() })
		if err != nil {
			return nil, err
		}
		var res result
		tr.do("trace.container-replay", func() {
			err = guarded(func() error { res = replayEntry(e.cfg, corpusWorkloads[i], ent, lruPolicy()); return nil })
		})
		if err != nil {
			return nil, err
		}
		l.containerLRU[s.name()] = res.text()
		l.entryText[s.name()] = ent.text()
		l.corpusBytes += ent.fileBytes()
		l.maxResident = max(l.maxResident, ent.maxResidentBytes())
	}

	// The policy zoo's MPKI table for these streams, fig2's layout.
	header := append([]string{"stream", "LRU"}, l.policies...)
	var rows [][]string
	for _, s := range l.repOrder {
		row := []string{s.name()}
		for _, p := range header[1:] {
			row = append(row, f2(l.replays[s.name()][p].mpki()))
		}
		rows = append(rows, row)
	}
	tr.do("bench.report", func() { _ = newReport("zoo", header, rows).render() })
	return l, nil
}

// The experiments' cell formats, which fidelity checks reproduce.
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", x) }

// reportFidelity checks the layer calls against the pass's fig2 and fig10
// reports: fig2's MPKI row and fig10's PageRank row (speedups and miss
// reductions) of every graph must come out identical.
func reportFidelity(pass []op, l *layerRun) error {
	reports := make(map[string]report)
	for _, o := range pass {
		reports[o.name] = o.rep
	}
	fig2, fig10 := reports["fig2"], reports["fig10"]
	if fig2.r == nil || fig10.r == nil {
		return fmt.Errorf("pass produced no fig2 and fig10 reports")
	}
	var want2 [][]string
	for _, s := range l.repOrder {
		res := l.replays[s.name()]
		row := []string{s.g.name()}
		for _, p := range append([]policy{lruPolicy()}, zooPolicies()...) {
			row = append(row, f2(res[p.name()].mpki()))
		}
		want2 = append(want2, row)
	}
	if got := fig2.rows(); !slices.EqualFunc(got, want2, slices.Equal) {
		return fmt.Errorf("fig2 rows %q, layer calls give %q", got, want2)
	}
	for _, s := range l.repOrder {
		res := l.replays[s.name()]
		var got []string
		for _, row := range fig10.rows() {
			if row[0] == s.b.Name && row[1] == s.g.name() {
				got = row
			}
		}
		lru := res["LRU"]
		var want []string
		// fig10 skips a cell whose LRU run barely reached the LLC.
		if lru.llcAccesses() >= 1000 {
			want = []string{s.b.Name, s.g.name()}
			var misses []string
			for _, name := range []string{"DRRIP", "P-OPT", "T-OPT"} {
				want = append(want, fmt.Sprintf("%.2fx", speedup(lru, res[name])))
				misses = append(misses, pct(missReduction(lru, res[name])))
			}
			want = append(want, misses...)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("fig10 row %q, layer calls give %q", got, want)
		}
	}
	return nil
}

// recordFidelity checks that every stream the pass recorded records
// identically in the layer calls.
func recordFidelity(pass []op, l *layerRun) error {
	for _, o := range pass {
		if l.recDigest[o.name] != o.digest {
			return fmt.Errorf("%s: layer calls recorded a different stream", o.name)
		}
	}
	return nil
}

// pathFidelity checks, on every workload, that the simulator's paths
// agree stream by stream: a live run, a recording run, an in-memory
// replay and a replay from the corpus all simulate the same LRU
// statistics.
func pathFidelity(l *layerRun) error {
	for _, name := range l.recOrder {
		if l.recText[name] != l.live[name] {
			return fmt.Errorf("%s: recording run differs from the live run", name)
		}
	}
	for _, s := range l.repOrder {
		name := s.name()
		if got := l.replays[name]["LRU"].text(); got != l.live[name] {
			return fmt.Errorf("%s: in-memory replay differs from the live run", name)
		}
		if l.containerLRU[name] != l.live[name] {
			return fmt.Errorf("%s: corpus replay differs from the live run", name)
		}
	}
	return nil
}

// largeFidelity checks the pass's corpus write (a live DRRIP run) and
// read (a P-OPT replay from disk) against in-memory replays of the same
// stream.
func largeFidelity(pass []op, l *layerRun) error {
	name := l.repOrder[0].name()
	res := l.replays[name]
	want := map[string]string{
		"write": digestOf(res["DRRIP"].text(), l.entryText[name]),
		"read":  digestOf(res["P-OPT"].text()),
	}
	for _, o := range pass {
		if o.digest != want[o.name] {
			return fmt.Errorf("corpus %s: in-memory replay gives a different result", o.name)
		}
	}
	return nil
}

// tracedRun is one traced run: set-up, a serial pass, and the layer calls.
type tracedRun struct {
	tr      *tracer
	pass    []op
	layers  *layerRun
	cells   []float64 // seconds
	passDur time.Duration
	alloc   uint64
	wall    time.Duration
	// fidelity is non-nil when the layer calls did not reproduce the
	// pass's simulated outputs.
	fidelity error
}

func runTraced(wd *workloadDef, seed int64, dir string) (*tracedRun, error) {
	t := &tracedRun{tr: newTracer()}
	t.tr.phase = phaseSetup
	e, err := wd.setup(seed, 1, t.tr)
	if err != nil {
		return nil, err
	}
	e.dir = dir
	t.tr.phase = phasePass
	e.cfg = e.cfg.onCell(func(d time.Duration) { t.tr.child("bench.cell", d) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	t.pass = wd.pass(e, t.tr, 0)
	t.passDur = time.Since(start)
	runtime.ReadMemStats(&after)
	t.alloc = after.TotalAlloc - before.TotalAlloc
	t.cells = t.tr.durations("bench.cell")
	if len(t.cells) == 0 {
		for _, o := range t.pass {
			t.cells = append(t.cells, o.dur.Seconds())
		}
	}
	if t.layers, err = runLayers(wd, e, t.tr); err != nil {
		return nil, err
	}
	t.wall = time.Since(t.tr.t0)
	if t.fidelity = pathFidelity(t.layers); t.fidelity == nil {
		t.fidelity = wd.fidelity(t.pass, t.layers)
	}
	return t, nil
}

// metrics derives every per-layer metric from the traced run.
func (t *tracedRun) metrics() map[string]float64 {
	tr, l := t.tr, t.layers
	sum := func(name string) float64 { return tr.sum(phaseLayers, name).Seconds() }
	nsPer := func(s float64, n uint64) float64 { return s * 1e9 / float64(n) }
	const mib = 1 << 20
	m := map[string]float64{
		"graph.build_s":                           tr.sum("", "graph.build").Seconds(),
		"graph.compact_s":                         tr.sum("", "graph.compact").Seconds(),
		"kernels.emit_ns_per_access":              nsPer(sum("kernels.emit"), l.l1Accesses),
		"cache.hierarchy_ns_per_access":           nsPer(sum("cache.live")-sum("kernels.emit"), l.l1Accesses),
		"cache.llc_events_per_access":             float64(l.llcEvents) / float64(l.l1Accesses),
		"trace.record_s":                          sum("trace.record"),
		"trace.encode_ns_per_llc_event":           nsPer(sum("trace.record")-sum("cache.live"), l.llcEvents),
		"trace.bytes_per_llc_event":               float64(l.traceBytes) / float64(l.llcEvents),
		"cache.replay_ns_per_llc_event":           nsPer(sum("cache.replay.LRU"), l.repEvents),
		"core.table_s":                            sum("core.table"),
		"core.linerefs_s":                         sum("core.linerefs"),
		"core.table_mib":                          float64(l.tableBytes) / mib,
		"core.linerefs_mib":                       float64(l.lineRefsBytes) / mib,
		"corpus.write_s":                          sum("corpus.write"),
		"corpus.open_ms":                          sum("corpus.open") * 1e3,
		"corpus.mib":                              float64(l.corpusBytes) / mib,
		"trace.container_verify_s":                sum("trace.verify"),
		"trace.container_replay_ns_per_llc_event": nsPer(sum("trace.container-replay"), l.repEvents),
		"trace.max_resident_mib":                  float64(l.maxResident) / mib,
		"bench.pass_s":                            t.passDur.Seconds(),
		"bench.cells":                             float64(len(t.cells)),
		"bench.cell_p50_ms":                       median(t.cells) * 1e3,
		"bench.cell_tail_ms":                      tail(t.cells).value * 1e3,
		"bench.report_ms":                         tr.sum("", "bench.report").Seconds() * 1e3,
		"bench.alloc_mib":                         float64(t.alloc) / mib,
		"bench.coverage":                          tr.coverage(t.wall),
	}
	lru := sum("cache.replay.LRU")
	for _, p := range l.policies {
		layer := "cache"
		if p == "P-OPT" || p == "T-OPT" {
			layer = "core"
		}
		m[layer+".victim_ns_per_llc_event."+p] = nsPer(sum("cache.replay."+p)-lru, l.repEvents)
	}
	return m
}
