// Package lint is a self-contained static-analysis framework plus the
// poptlint analyzer suite that enforces this repository's simulator
// invariants:
//
//   - bit-reproducible execution (determinism);
//   - the cache.Policy contract: Victim names the borrowed tag row only
//     to read it, measure it, copy it out or delegate it to another
//     Victim, and every policy reads Geometry.ReservedWays
//     (policycontract);
//   - single-writer statistics counters (statsdiscipline);
//   - publish safety of the inputs sweep cells share, in one walk of each
//     function: frozen values written only while fresh, guarded fields
//     touched only under their guard, and loop-launched goroutines
//     writing captured state only at disjoint slots (sharefreeze);
//   - the hand-written trace wire codecs: enc/dec parity, loud opcode
//     dispatch, and a version-locked layout fingerprint (wireformat).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic, a testdata-driven test harness with
// `// want "regexp"` expectations — but is built only on the standard
// library (go/ast, go/types, go/importer, `go list`), so the module keeps
// zero external dependencies. If the repo ever vendors x/tools, each
// Analyzer here ports mechanically: Run already receives the same
// (files, type info, report func) surface.
//
// Findings can be suppressed at a specific line with a directive comment
// on the flagged line or the line directly above it:
//
//	//lint:allow <analyzer>   suppress one analyzer's finding
//	//lint:ordered            shorthand for //lint:allow determinism,
//	                          asserting a map iteration is order-insensitive
//
// Directives are deliberately per-line so an annotation cannot silently
// cover new code added nearby.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description shown by `poptlint -help`.
	Doc string
	// Run analyzes one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	// directives maps file base name -> line -> analyzer names allowed
	// there ("*" entries match every analyzer). Populated by the driver.
	directives map[string]map[int][]string
}

// Reportf reports a formatted finding unless a directive suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressed reports whether a //lint directive on the finding's line (or
// the line above) allows this analyzer.
func (p *Pass) suppressed(pos token.Pos) bool {
	if p.directives == nil {
		return false
	}
	position := p.Fset.Position(pos)
	lines := p.directives[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, name := range lines[line] {
			if name == "*" || name == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

// collectDirectives scans the package's comments for //lint directives.
func collectDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	add := func(pos token.Pos, names ...string) {
		position := fset.Position(pos)
		if out[position.Filename] == nil {
			out[position.Filename] = make(map[int][]string)
		}
		out[position.Filename][position.Line] = append(out[position.Filename][position.Line], names...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				switch {
				case text == "//lint:ordered" || strings.HasPrefix(text, "//lint:ordered "):
					add(c.Pos(), "determinism")
				case strings.HasPrefix(text, "//lint:allow"):
					rest := strings.TrimPrefix(text, "//lint:allow")
					names := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
					if len(names) == 0 {
						names = []string{"*"}
					}
					add(c.Pos(), names...)
				}
			}
		}
	}
	return out
}

// Finding is a rendered diagnostic from a driver run.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by file, line, column, and analyzer name, so driver
// output is itself deterministic.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		directives := collectDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				directives: directives,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
