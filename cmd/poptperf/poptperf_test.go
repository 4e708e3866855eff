package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/goldens.txt from one pass of every workload at each golden seed (takes minutes)")

// goldenSeeds are the seeds with recorded digests: 42, the default, and
// 43, held out from development.
var goldenSeeds = []int64{42, 43}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(declared, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, want)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		kind          string
		json, program []metricDef
		max           int
	}{
		{"end_to_end", e2e, e2eMetrics, 16},
		{"per_layer", layers, layerMetrics, 128},
	} {
		if len(c.json) != len(c.program) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program emits %d", c.kind, len(c.json), len(c.program))
		}
		for i := range min(len(c.json), len(c.program)) {
			if c.json[i] != c.program[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, program has %v", c.kind, i, c.json[i], c.program[i])
			}
		}
		if len(c.program) > c.max {
			t.Errorf("%s: %d metrics, at most %d allowed", c.kind, len(c.program), c.max)
		}
		seen := make(map[string]bool)
		for _, m := range c.program {
			if !metricName.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: metric name %q is malformed or repeated", c.kind, m.name)
			}
			seen[m.name] = true
		}
	}
}

// TestSimulatorCallsStayInAPI keeps every call into the simulator in
// api.go, so a simulator API change edits one file of the benchmark.
func TestSimulatorCallsStayInAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "popt/") && f != "api.go" {
				t.Errorf("%s imports %s; only api.go may", f, path)
			}
		}
	}
}

// TestGoldens checks one tiny-all pass at each golden seed against the
// recorded digests; the benchmark checks the other workloads on every
// run. With -update it records fresh digests for every workload.
func TestGoldens(t *testing.T) {
	ws := []*workloadDef{workloadByName("tiny-all")}
	if *update {
		ws = workloads
	}
	digests := make(map[goldenKey][]op)
	for _, seed := range goldenSeeds {
		for _, wd := range ws {
			e, err := wd.setup(seed, sweepWorkers, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.dir = t.TempDir()
			ops := wd.pass(e, nil, 0)
			digests[goldenKey{seed, wd.name}] = ops
			chk := newChecker(seed, wd.name)
			for _, o := range ops {
				if o.err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, wd.name, o.name, o.err)
				}
				if !*update {
					if !chk.golden {
						t.Fatalf("no goldens for seed %d %s", seed, wd.name)
					}
					if err := chk.check(o); err != nil {
						t.Errorf("seed %d %s %s: %v", seed, wd.name, o.name, err)
					}
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "goldens.txt"), []byte(formatGoldens(goldenSeeds, digests)), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMeasureTinyAll(t *testing.T) {
	out, err := measure(workloadByName("tiny-all"), 42, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
	}
	for _, m := range e2eMetrics {
		if v, ok := out.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("metric %s = %+v", m.name, v)
		}
	}
}

func TestTracedTinyAll(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	out, err := measureTraced(workloadByName("tiny-all"), 43, dir, spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d", out.Correct, out.Failed, out.Attempted)
	}
	for _, d := range layerMetrics {
		if v := out.Metrics[d.name]; v.Value == 0 || v.Unit != d.unit {
			t.Errorf("traced run reports %s = %+v", d.name, v)
		}
	}
	if c := out.Metrics["bench.coverage"].Value; c < 0.9 {
		t.Errorf("spans cover %.3f of the traced run, want >= 0.9", c)
	}
	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i, line := range lines {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil || s.ID != i+1 || s.Name == "" || s.End < s.Start {
			t.Fatalf("spans line %d = %q (%v)", i+1, line, err)
		}
	}
	if float64(len(lines)) < out.Metrics["bench.cells"].Value {
		t.Errorf("%d spans written, fewer than the pass's cells", len(lines))
	}
}

// formatGoldens renders digests in the goldens file format.
func formatGoldens(seeds []int64, digests map[goldenKey][]op) string {
	var sb strings.Builder
	sb.WriteString("# SHA-256 of each op's simulated output: seed workload op digest.\n")
	sb.WriteString("# Regenerate with: go test -run TestGoldens -update (in cmd/poptperf).\n")
	for _, seed := range seeds {
		for _, w := range workloads {
			for _, o := range digests[goldenKey{seed, w.name}] {
				if o.digest != "" {
					fmt.Fprintf(&sb, "%d %s %s %s\n", seed, w.name, o.name, o.digest)
				}
			}
		}
	}
	return sb.String()
}
