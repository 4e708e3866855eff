package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json that compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRuns reads one result line per run from a JSON-lines file, as
// measure.sh collects them.
func readRuns(path string) ([]outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []outcome
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, o)
	}
	return runs, sc.Err()
}

// compareMain implements "poptperf compare": for each workload and
// end-to-end metric it sets the runs in DIR_A/<workload>.jsonl against
// those in DIR_B. By default it checks that two sets of runs of the same
// code agree (A/A); with -ab, A is the parent and B the change. It exits
// 1 when the sets disagree, a metric regressed, or a run was incorrect.
func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	ab := fl.Bool("ab", false, "compare a parent (first directory) with a change (second)")
	if err := fl.Parse(args); err != nil || fl.NArg() != 3 {
		fmt.Fprintln(os.Stderr, "usage: poptperf compare [-ab] BENCHMARK.json DIR_A DIR_B")
		return 2
	}
	spec, err := readSpec(fl.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "poptperf compare: %v\n", err)
		return 2
	}
	bad := false
	fmt.Printf("%-13s %-13s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "spreadA", "spreadB", "B worse", "verdict")
	for _, w := range spec.Workloads {
		a, errA := readRuns(filepath.Join(fl.Arg(1), w.Name+".jsonl"))
		b, errB := readRuns(filepath.Join(fl.Arg(2), w.Name+".jsonl"))
		if errors.Is(errA, fs.ErrNotExist) && errors.Is(errB, fs.ErrNotExist) {
			continue
		}
		if err := errors.Join(errA, errB); err != nil {
			fmt.Fprintf(os.Stderr, "poptperf compare: %v\n", err)
			return 2
		}
		for _, o := range append(a, b...) {
			if !o.Correct || o.Failed > 0 {
				fmt.Printf("%-13s a run was incorrect (%d of %d ops failed)\n", w.Name, o.Failed, o.Attempted)
				bad = true
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := metricRuns(a, m.Name), metricRuns(b, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			lower := m.Better == "lower"
			var verdict string
			if *ab {
				r := compareAB(va, vb, m.Bound, lower)
				verdict = fmt.Sprintf("%s (%d/%d pairs won)", r.verdict, r.wins, r.pairs)
				bad = bad || r.verdict == regressed
			} else {
				g := agreeAA(va, vb, m.Bound, lower)
				// Set-up time's spread is reported, not bounded: a run
				// times one sub-second build, whose spread over seeds
				// exceeds the bound on this kind of host. Only its median
				// must hold.
				ok := g.agree || (m.Name == "setup_s" && g.drift <= m.Bound)
				switch {
				case !ok:
					verdict = "disagree"
				case g.steady:
					verdict = "agree, steady"
				default:
					verdict = "agree"
				}
				bad = bad || !ok
			}
			fmt.Printf("%-13s %-13s %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%, %d+%d runs)\n",
				w.Name, m.Name, median(va), median(vb), 100*spread(va), 100*spread(vb),
				100*worse(median(va), median(vb), lower), verdict, 100*m.Bound, len(va), len(vb))
		}
	}
	if bad {
		return 1
	}
	return 0
}

func metricRuns(runs []outcome, name string) []float64 {
	var out []float64
	for _, o := range runs {
		if v, ok := o.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
