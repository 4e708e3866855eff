// Command poptlint runs the repository's custom static-analysis suite
// (internal/lint) over the given packages: simulator determinism, the
// cache.Policy contract (policycontract), cache.Stats write discipline,
// publish safety of shared sweep inputs (sharefreeze), and the wireformat
// analyzer for the trace codecs. It exits nonzero when any finding
// survives the //lint directives, so it can gate CI the same way go vet
// does. -run selects a subset of the analyzers by name; CI runs
// sharefreeze and wireformat on their own that way, to archive their
// reports.
//
// sharefreeze walks every function once and checks three contracts:
// //popt:frozen values are written only while fresh, //popt:guardedby
// fields are touched only under their sync.Mutex or, for a sync.Once
// guard, written inside the Do and read inside or after it, and
// goroutines launched in loops write captured state only at disjoint
// slots.
//
// wireformat walks every //popt:codec function once and checks three
// things: each enc/dec pair encodes and decodes the same per-opcode
// payload layout, opcode dispatch switches cover every declared opcode
// with a loud default, and each stream's canonical fingerprint matches
// the checked-in baseline (drift without a FormatVersions bump fails;
// -update with -run wireformat regenerates the baseline after a
// deliberate bump).
//
// With -hotpath it instead runs the hot-path performance gate
// (internal/lint/hotpath): every //popt:hot function is compiled with
// -gcflags='-m -d=ssa/check_bce/debug=1' and the escape, bounds-check,
// and inlining facts are diffed against the checked-in baseline. Any new
// heap escape, lost inline, or extra bounds check inside a hot function
// fails the gate; -update regenerates the baseline deliberately.
//
// Usage:
//
//	go run ./cmd/poptlint ./...
//	go run ./cmd/poptlint -list
//	go run ./cmd/poptlint -run determinism ./internal/cache/...
//	go run ./cmd/poptlint -run sharefreeze ./...
//	go run ./cmd/poptlint -run wireformat ./...
//	go run ./cmd/poptlint -run wireformat -update ./...
//	go run ./cmd/poptlint -hotpath
//	go run ./cmd/poptlint -hotpath -update
//
// Exit codes: 0 clean, 1 findings or baseline divergence, 2 usage or
// load/build errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"popt/internal/lint"
	"popt/internal/lint/hotpath"
)

// DefaultBaseline is the checked-in hot-path baseline, relative to the
// module root.
const DefaultBaseline = "internal/lint/testdata/hotpath.baseline"

// DefaultWireBaseline is the checked-in wire-format fingerprint baseline,
// relative to the module root.
const DefaultWireBaseline = "internal/lint/testdata/wireformat.baseline"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("poptlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	runSel := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", "", "run as if started in this directory (module root)")
	hot := fs.Bool("hotpath", false, "run the hot-path performance gate instead of the analyzers")
	update := fs.Bool("update", false, "with -hotpath or -run wireformat, regenerate the baseline instead of diffing")
	baseline := fs.String("baseline", DefaultBaseline, "with -hotpath, baseline file (relative to -C dir)")
	wireBaseline := fs.String("wirebaseline", DefaultWireBaseline, "wire-format baseline file whenever wireformat runs (relative to -C dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	wireBaselinePath := *wireBaseline
	if !filepath.IsAbs(wireBaselinePath) && *dir != "" {
		wireBaselinePath = filepath.Join(*dir, wireBaselinePath)
	}
	all := []*lint.Analyzer{
		lint.NewDeterminism(),
		lint.PolicyContract,
		lint.StatsDiscipline,
		lint.NewShareFreeze(),
		lint.NewWireFormat(wireBaselinePath, *update),
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *hot {
		return runHotpath(*dir, *baseline, *update, fs.Args(), stdout, stderr)
	}

	analyzers := all
	if *runSel != "" {
		analyzers = nil
		for _, name := range strings.Split(*runSel, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, a := range all {
				if a.Name == name {
					analyzers = append(analyzers, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(stderr, "poptlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
		}
	}
	if *update && (len(analyzers) != 1 || analyzers[0].Name != "wireformat") {
		fmt.Fprintln(stderr, "poptlint: -update only applies with -hotpath or -run wireformat")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.NewLoader(*dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "poptlint: %v\n", err)
		return 2
	}
	findings, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "poptlint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "poptlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// runHotpath runs the compiler-diagnostics gate: collect facts for every
// //popt:hot function and diff them against (or, with update, write) the
// baseline file.
func runHotpath(dir, baselinePath string, update bool, patterns []string, stdout, stderr io.Writer) int {
	report, err := hotpath.Collect(hotpath.Options{Dir: dir, Patterns: patterns})
	if err != nil {
		fmt.Fprintf(stderr, "poptlint: -hotpath: %v\n", err)
		return 2
	}
	if len(report.Functions) == 0 {
		fmt.Fprintln(stderr, "poptlint: -hotpath: no //popt:hot functions found; annotate hot functions or check the package patterns")
		return 2
	}
	if !filepath.IsAbs(baselinePath) && dir != "" {
		baselinePath = filepath.Join(dir, baselinePath)
	}
	if update {
		if err := hotpath.WriteBaselineFile(baselinePath, report.Facts); err != nil {
			fmt.Fprintf(stderr, "poptlint: -hotpath: writing baseline: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "poptlint: -hotpath: baseline updated: %d hot function(s), %d fact(s) -> %s\n",
			len(report.Functions), len(report.Facts), baselinePath)
		return 0
	}
	base, err := hotpath.ReadBaselineFile(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "poptlint: -hotpath: reading baseline %s: %v\n(run `poptlint -hotpath -update` to create it)\n", baselinePath, err)
		return 2
	}
	diff := hotpath.Diff(base, report.Facts)
	if len(diff) == 0 {
		fmt.Fprintf(stdout, "poptlint: -hotpath: ok (%d hot function(s), %d fact(s) match baseline)\n",
			len(report.Functions), len(report.Facts))
		return 0
	}
	regressions := 0
	for _, d := range diff {
		if d.Regression {
			regressions++
		}
		fmt.Fprintln(stdout, d)
	}
	fmt.Fprintf(stderr, "poptlint: -hotpath: %d divergence(s) from baseline (%d regression(s)); fix the hot path or run -update deliberately\n",
		len(diff), regressions)
	return 1
}
