package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is a workload's built input.
type env struct {
	cfg    simConfig
	graphs []graphRef
	// dir is a scratch directory inside the run's work directory, for
	// corpus files.
	dir string
}

// op is one checked unit of a pass: one report (tiny-all, headline) or one
// stream or replay result (record-suite, large-corpus).
type op struct {
	name string
	dur  time.Duration
	// digest is the SHA-256 of the op's simulated output; empty when the
	// output holds host timings and cannot be compared.
	digest string
	err    error
	// rep is the op's report, when it produced one.
	rep report
}

// guarded runs fn and returns its error, or a panic from it as an error:
// the op fails and the run goes on.
func guarded(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// digestOf is the SHA-256 of the parts joined by newlines; a report's
// digest is that of its CSV exactly as poptbench -format csv prints it.
func digestOf(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\n")))
	return hex.EncodeToString(sum[:])
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// setup builds the input.
	setup func(seed int64, workers int, tr *tracer) (*env, error)
	// pass runs the workload once; n numbers the passes of a run.
	pass func(e *env, tr *tracer, n int) []op
	// recStreams are the streams whose record path the traced run takes
	// apart; repStreams (a subset) are those it replays under every policy.
	recStreams, repStreams func(e *env) []stream
	// fidelity checks that the traced run's layer calls reproduce the
	// pass's simulated outputs.
	fidelity func(pass []op, l *layerRun) error
}

// sweepWorkers bounds sweep parallelism in untraced runs. It is fixed,
// not the host's core count, so every host partitions the work the same
// way; traced runs are serial.
const sweepWorkers = 2

// largeVertices sizes the large-corpus input: fig11's first paper-scale
// cell, URAND with 2^21 vertices and 2^23 edges.
const largeVertices = 1 << 21

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each exists, and README.md which layers each one stresses.
var workloads = []*workloadDef{
	{
		// Thousands of short cells: per-cell set-up, the sweep engine,
		// report rendering and the fig11-16 schedules (tiling, PHI, BDFS,
		// DBG), which no other workload reaches.
		name: "tiny-all",
		setup: func(seed int64, workers int, tr *tracer) (*env, error) {
			return suiteSetup("tiny", seed, workers, tr)
		},
		pass:       experimentsPass(experimentIDs()),
		recStreams: func(e *env) []stream { return allKernelStreams(e.graphs) },
		repStreams: func(e *env) []stream { return pageRankStreams(e.graphs) },
		fidelity:   reportFidelity,
	},
	{
		// The paper's headline results: replay and policy victim selection,
		// P-OPT and T-OPT above all, take most of the time.
		name: "headline",
		setup: func(seed int64, workers int, tr *tracer) (*env, error) {
			return suiteSetup("default", seed, workers, tr)
		},
		pass:       experimentsPass([]string{"fig2", "fig10"}),
		recStreams: func(e *env) []stream { return pageRankStreams(e.graphs) },
		repStreams: func(e *env) []stream { return pageRankStreams(e.graphs) },
		fidelity:   reportFidelity,
	},
	{
		// The record path alone (kernel emit, L1/L2, LLC encode) over the
		// 25 streams fig10 also records: a record-only change predicts the
		// same saving on headline, a replay-only change none here. Serial,
		// so the pass costs exactly the sum of its record calls.
		name: "record-suite",
		setup: func(seed int64, workers int, tr *tracer) (*env, error) {
			return suiteSetup("default", seed, 1, tr)
		},
		pass:       recordPass,
		recStreams: func(e *env) []stream { return allKernelStreams(e.graphs) },
		repStreams: func(e *env) []stream { return pageRankStreams(e.graphs) },
		fidelity:   recordFidelity,
	},
	{
		// The out-of-core path at paper cache size: the corpus write
		// (record plus container framing, CRC and fsync) and the read
		// (chunk decode and replay), with compact-adjacency decode inside
		// the kernel. The input's 8 MiB irregular array fits the 24 MB
		// LLC, so P-OPT's victim search costs little here; headline is
		// where it shows.
		name:       "large-corpus",
		setup:      largeSetup,
		pass:       largePass,
		recStreams: func(e *env) []stream { return pageRankStreams(e.graphs) },
		repStreams: func(e *env) []stream { return pageRankStreams(e.graphs) },
		fidelity:   largeFidelity,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// suiteSetup builds the five-graph suite into the memo the experiments
// read, so the passes find it built.
func suiteSetup(scale string, seed int64, workers int, tr *tracer) (*env, error) {
	cfg, err := newSimConfig(scale, seed, workers)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg}
	tr.do("graph.build", func() { e.graphs = cfg.memoizedSuite() })
	return e, nil
}

func largeSetup(seed int64, workers int, tr *tracer) (*env, error) {
	cfg, err := newSimConfig("large", seed, workers)
	if err != nil {
		return nil, err
	}
	var g graphRef
	tr.do("graph.build", func() { g = uniformGraph(largeVertices, seed) })
	tr.do("graph.compact", func() { g = compactLayout(g) })
	return &env{cfg: cfg, graphs: []graphRef{g}}, nil
}

// experimentsPass runs the named experiments and renders each report.
func experimentsPass(ids []string) func(e *env, tr *tracer, n int) []op {
	return func(e *env, tr *tracer, n int) []op {
		ops := make([]op, len(ids))
		for i, id := range ids {
			o := &ops[i]
			o.name = id
			o.dur = tr.do("bench.experiment", func() {
				o.err = guarded(func() error { o.rep = runExperiment(e.cfg, id); return nil })
			})
			if o.err != nil {
				continue
			}
			var csv string
			o.dur += tr.do("bench.report", func() { csv = o.rep.render() })
			// table4 reports host timings of the table build.
			if id != "table4" {
				o.digest = digestOf(csv)
			}
		}
		return ops
	}
}

// recordPass records every kernel x graph stream under LRU, serially.
func recordPass(e *env, tr *tracer, n int) []op {
	var ops []op
	for _, s := range allKernelStreams(e.graphs) {
		var res result
		var t llcTrace
		o := op{name: s.name()}
		o.dur = tr.do("trace.record", func() {
			o.err = guarded(func() error { res, t = recordLLC(e.cfg, s.build()); return nil })
		})
		if o.err == nil {
			tr.do("poptperf.check", func() { o.digest = digestOf(res.text(), t.digest()) })
		}
		ops = append(ops, o)
	}
	return ops
}

// largePass writes the PageRank stream into a fresh corpus under DRRIP
// and replays it from disk under P-OPT, as fig11's cell does.
func largePass(e *env, tr *tracer, n int) []op {
	s := pageRankStreams(e.graphs)[0]
	dir := filepath.Join(e.dir, fmt.Sprintf("corpus-%d", n))
	defer os.RemoveAll(dir)
	write, read := op{name: "write"}, op{name: "read"}
	var (
		st  store
		w   workload
		ent entry
		res result
	)
	write.dur = tr.do("corpus.write", func() {
		write.err = guarded(func() (err error) {
			if st, err = openStore(dir); err != nil {
				return err
			}
			w = s.build()
			res, ent, err = recordToCorpus(e.cfg, st, s, w, drripPolicy())
			return err
		})
	})
	defer st.close()
	if write.err != nil {
		read.err = errors.New("no corpus entry to read")
		return []op{write, read}
	}
	write.digest = digestOf(res.text(), ent.text())
	read.dur = tr.do("corpus.read", func() {
		read.err = guarded(func() error { res = replayEntry(e.cfg, w, ent, poptPolicy()); return nil })
	})
	if read.err == nil {
		read.digest = digestOf(res.text())
	}
	return []op{write, read}
}
