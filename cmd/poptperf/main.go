// Command poptperf is the repository's benchmark. One run measures one
// workload and prints, as its last line, a JSON object with every metric
// by name and unit and whether the simulated outputs were correct.
//
// Usage:
//
//	poptperf -workload W [-seed N] [-seconds S] [-trace 0|1]
//	poptperf compare [-ab] BENCHMARK.json DIR_A DIR_B
//
// An untraced run builds the workload's input, then repeats whole passes
// of the workload until S seconds have gone (at least one pass), checking
// every pass's outputs against the goldens for the seed (or, for a seed
// without goldens, against the run's first pass). It reports the
// end-to-end metrics. A traced run (-trace 1) sets up, makes one serial
// pass with a span around every call into a simulator layer, then calls
// each layer on its own to take the pass apart; it reports the per-layer
// metrics and writes its spans to .bench_build/spans-W-N.jsonl. Build
// products and corpus files go under .bench_build in the working
// directory. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric; BENCHMARK.json declares the same names
// (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit, better string }

var e2eMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

var layerMetrics = []metricDef{
	{"graph.build_s", "s", "lower"},
	{"graph.compact_s", "s", "lower"},
	{"kernels.emit_ns_per_access", "ns", "lower"},
	{"cache.hierarchy_ns_per_access", "ns", "lower"},
	{"cache.llc_events_per_access", "ratio", "lower"},
	{"trace.record_s", "s", "lower"},
	{"trace.encode_ns_per_llc_event", "ns", "lower"},
	{"trace.bytes_per_llc_event", "B", "lower"},
	{"cache.replay_ns_per_llc_event", "ns", "lower"},
	{"cache.victim_ns_per_llc_event.DRRIP", "ns", "lower"},
	{"cache.victim_ns_per_llc_event.SHiP-PC", "ns", "lower"},
	{"cache.victim_ns_per_llc_event.SHiP-Mem", "ns", "lower"},
	{"cache.victim_ns_per_llc_event.Hawkeye", "ns", "lower"},
	{"core.victim_ns_per_llc_event.P-OPT", "ns", "lower"},
	{"core.victim_ns_per_llc_event.T-OPT", "ns", "lower"},
	{"core.table_s", "s", "lower"},
	{"core.linerefs_s", "s", "lower"},
	{"core.table_mib", "MiB", "lower"},
	{"core.linerefs_mib", "MiB", "lower"},
	{"corpus.write_s", "s", "lower"},
	{"corpus.open_ms", "ms", "lower"},
	{"corpus.mib", "MiB", "lower"},
	{"trace.container_verify_s", "s", "lower"},
	{"trace.container_replay_ns_per_llc_event", "ns", "lower"},
	{"trace.max_resident_mib", "MiB", "lower"},
	{"bench.pass_s", "s", "lower"},
	{"bench.cells", "count", "lower"},
	{"bench.cell_p50_ms", "ms", "lower"},
	{"bench.cell_tail_ms", "ms", "lower"},
	{"bench.report_ms", "ms", "lower"},
	{"bench.alloc_mib", "MiB", "lower"},
	{"bench.coverage", "ratio", "higher"},
}

//go:embed testdata/goldens.txt
var goldensText string

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 42, "input generator seed")
	seconds := flag.Int("seconds", 10, "untraced runs repeat passes until this many seconds have gone")
	traced := flag.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics")
	flag.Parse()
	wd := workloadByName(*name)
	if wd == nil || flag.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "poptperf: need -workload (one of %s), -trace 0 or 1 and -seconds >= 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := run(wd, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "poptperf: %s: %v\n", wd.name, err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// outcome is one run's result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(wd *workloadDef, seed int64, seconds int, traced bool) error {
	if err := os.MkdirAll(".bench_build", 0o777); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "poptperf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var out *outcome
	if traced {
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", wd.name, seed))
		out, err = measureTraced(wd, seed, dir, spans)
	} else {
		out, err = measure(wd, seed, seconds, dir)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure makes an untraced run and reports the end-to-end metrics.
func measure(wd *workloadDef, seed int64, seconds int, dir string) (*outcome, error) {
	start := time.Now()
	in, err := wd.setup(seed, sweepWorkers, nil)
	setup := time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	in.dir = dir
	chk := newChecker(seed, wd.name)
	out := &outcome{}
	var walls, rss []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// Every pass starts from a collected heap, so garbage left by
		// set-up or the previous pass neither costs it time nor lifts its
		// peak resident size.
		debug.FreeOSMemory()
		resetPeakRSS()
		var wall time.Duration
		for _, o := range wd.pass(in, nil, n) {
			wall += o.dur
			chk.count(out, o)
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, peakRSSMiB())
	}
	out.Correct = out.Failed == 0
	fmt.Fprintf(os.Stderr, "poptperf: %s seed %d: %d passes, wall_s %.4g (quartiles %.4g..%.4g), setup_s %.4g, peak_rss_mib %.4g\n",
		wd.name, seed, len(walls), median(walls), quantile(walls, 0.25), quantile(walls, 0.75), setup, median(rss))
	out.Metrics = values(e2eMetrics, map[string]float64{
		"wall_s":       median(walls),
		"setup_s":      setup,
		"peak_rss_mib": median(rss),
	})
	return out, nil
}

// measureTraced makes a traced run, writes its spans to spansPath as JSON
// lines and reports the per-layer metrics.
func measureTraced(wd *workloadDef, seed int64, dir, spansPath string) (*outcome, error) {
	t, err := runTraced(wd, seed, dir)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	chk := newChecker(seed, wd.name)
	for _, o := range t.pass {
		chk.count(out, o)
	}
	out.Correct = out.Failed == 0 && t.fidelity == nil
	if t.fidelity != nil {
		fmt.Fprintf(os.Stderr, "poptperf: fidelity: %v\n", t.fidelity)
	}
	t.tr.summarize(os.Stderr)
	if err := t.tr.writeJSON(spansPath); err != nil {
		return nil, err
	}
	out.Metrics = values(layerMetrics, t.metrics())
	return out, nil
}

// values attaches units to the declared metrics, in declaration order.
func values(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident size (Linux). Where that fails, peaks accumulate over the run.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB is the process's peak resident size since resetPeakRSS.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(kb, "kB"))); err == nil {
					return float64(n) / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// checker judges each op: it fails when it errored or when its digest
// differs from the golden for the run's seed. For a seed without goldens
// the run's first pass sets the expected digests, so later passes must
// repeat it exactly.
type checker struct {
	want   map[string]string
	golden bool
}

func newChecker(seed int64, workload string) *checker {
	want := goldens()[goldenKey{seed, workload}]
	return &checker{want: want, golden: want != nil}
}

func (c *checker) count(out *outcome, o op) {
	out.Attempted++
	if err := c.check(o); err != nil {
		out.Failed++
		fmt.Fprintf(os.Stderr, "poptperf: %s: %v\n", o.name, err)
	}
}

func (c *checker) check(o op) error {
	if o.err != nil || o.digest == "" {
		return o.err
	}
	want, ok := c.want[o.name]
	switch {
	case !ok && c.golden:
		return fmt.Errorf("no golden digest")
	case !ok:
		if c.want == nil {
			c.want = make(map[string]string)
		}
		c.want[o.name] = o.digest
	case want != o.digest:
		return fmt.Errorf("output digest %.12s differs from %.12s", o.digest, want)
	}
	return nil
}

// goldenKey selects the golden digests of one workload at one seed.
type goldenKey struct {
	seed     int64
	workload string
}

// goldens parses testdata/goldens.txt: one "seed workload op sha256" line
// per op; '#' starts a comment. The file is embedded at build time, so a
// malformed line is a bug.
func goldens() map[goldenKey]map[string]string {
	out := make(map[goldenKey]map[string]string)
	for i, line := range strings.Split(goldensText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		seed, err := strconv.ParseInt(f[0], 10, 64)
		if len(f) != 4 || err != nil {
			panic(fmt.Sprintf("testdata/goldens.txt line %d is malformed", i+1))
		}
		k := goldenKey{seed, f[1]}
		if out[k] == nil {
			out[k] = make(map[string]string)
		}
		out[k][f[2]] = f[3]
	}
	return out
}
