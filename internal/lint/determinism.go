package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SimPackages are the packages whose execution must be bit-reproducible:
// every access the simulator observes, every victim a policy picks, and
// every statistic the experiments report flows through them. A prefix
// matches the package itself and everything below it, plus its external
// test packages.
var SimPackages = []string{
	"popt/internal/cache",
	"popt/internal/core",
	"popt/internal/kernels",
	"popt/internal/graph",
	"popt/internal/mem",
	"popt/internal/perf",
	"popt/internal/sched",
	"popt/internal/bench",
	"popt/internal/trace",
	"popt/internal/analysis",
	"popt/internal/corpus",
}

// randSourceless are math/rand package-level functions that do NOT draw
// from the process-global source and are therefore always allowed.
var randSourceless = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // consumes an explicit *rand.Rand
}

// NewDeterminism builds the determinism analyzer scoped to packages whose
// import path starts with one of simPrefixes (default: SimPackages). It
// flags, inside those packages:
//
//   - `for range` over a map: Go randomizes map iteration order, so any
//     observable effect of the loop body is run-to-run nondeterministic.
//     Sites proven order-insensitive carry a //lint:ordered directive.
//   - math/rand package-level draws (rand.Intn, rand.Shuffle, ...): they
//     consume the shared global source, so results depend on what else
//     ran before. Policies must hold an explicitly seeded *rand.Rand.
//   - time.Now: wall-clock reads make simulated results time-dependent;
//     simulation time must be modeled, never sampled.
func NewDeterminism(simPrefixes ...string) *Analyzer {
	if len(simPrefixes) == 0 {
		simPrefixes = SimPackages
	}
	a := &Analyzer{
		Name: "determinism",
		Doc: "flags nondeterminism inside simulation packages: map iteration, " +
			"global-source math/rand draws, and time.Now; suppress a proven " +
			"order-insensitive site with //lint:ordered",
	}
	a.Run = func(pass *Pass) error {
		if !inScope(pass.Pkg.Path(), simPrefixes) {
			return nil
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					checkMapRange(pass, n)
				case *ast.CallExpr:
					checkCall(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

func inScope(path string, prefixes []string) bool {
	// External test packages share their library's scope.
	path = strings.TrimSuffix(path, "_test")
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(rs.For,
		"range over map %s iterates in randomized order; iterate sorted keys or a slice, or annotate a proven order-insensitive loop with //lint:ordered",
		exprString(rs.X))
}

func checkCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are the sanctioned form
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !randSourceless[fn.Name()] {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the global math/rand source; use an explicitly seeded *rand.Rand so simulations replay bit-identically",
				fn.Pkg().Name(), fn.Name())
		}
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now inside a simulation package makes results wall-clock dependent; model time explicitly or move timing to a reporting package")
		}
	}
}

// exprString renders a short source-like form of an expression for
// diagnostics (identifiers and selector chains; anything else degrades to
// a placeholder).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CompositeLit:
		return "literal"
	default:
		return "expression"
	}
}
