package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestPolicyContract runs the analyzer on the ReservedWays obligation and
// the borrow check's direct write, retention, re-slice and pointer
// shapes.
func TestPolicyContract(t *testing.T) {
	RunTest(t, "testdata", PolicyContract, "contract")
}

// TestBorrowFlow runs the analyzer on the ways tags escapes Victim:
// helper calls, locals, closures, goroutines, channels and package
// variables, each flagged where Victim names tags.
func TestBorrowFlow(t *testing.T) {
	RunTest(t, "testdata", PolicyContract, "borrow")
}

// realTreeTagUses pins, per Victim of the real tree, every use of tags
// the borrow check accepts, counted by form. Six Victims name the row;
// the other eleven leave it unnamed or never use it. A rule that
// silently accepts everything, or skips a Victim, no longer matches.
var realTreeTagUses = map[string]string{
	"cache.BRRIP":         "",
	"cache.BeladyMIN":     "index 1",
	"cache.BitPLRU":       "",
	"cache.CheckedPolicy": "append 1, delegate 1, index 3, len 3, range 1",
	"cache.DIP":           "",
	"cache.DRRIP":         "",
	"cache.GRASP":         "",
	"cache.Hawkeye":       "",
	"cache.LRU":           "",
	"cache.Random":        "",
	"cache.SDBP":          "delegate 1",
	"cache.SHiP":          "",
	"cache.SRRIP":         "",
	"core.POPT":           "index 2",
	"core.TOPT":           "index 2",
	"core.TilePolicy":     "delegate 1",
	"main.FIFO":           "",
}

// TestPolicyContractRealTree runs the analyzer over every package that
// declares a Policy: it must find nothing, its Victim matcher must match
// every Victim method declared there (so a change to the Victim
// signature cannot silently switch the analyzer off), and the uses of
// tags it accepts must be exactly realTreeTagUses.
func TestPolicyContractRealTree(t *testing.T) {
	pkgs, err := NewLoader(filepath.Join("..", "..")).Load("./internal/cache", "./internal/core", "./examples/custom-policy")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(pkgs, []*Analyzer{PolicyContract})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on the real tree: %s", f)
	}
	got := make(map[string]string)
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "Victim" {
					continue
				}
				if !isVictimSig(pkg.Info.Defs[fd.Name].(*types.Func)) {
					t.Errorf("%s: isVictimSig does not match this Victim method", pkg.Fset.Position(fd.Pos()))
				}
				counts := make(map[string]int)
				for _, u := range tagUses(pass, fd) {
					if u.form != "" {
						counts[u.form]++
					}
				}
				var forms []string
				for form, n := range counts {
					forms = append(forms, fmt.Sprintf("%s %d", form, n))
				}
				sort.Strings(forms)
				got[pkg.Types.Name()+"."+recvTypeName(fd.Recv.List[0].Type)] = strings.Join(forms, ", ")
			}
		}
	}
	if !reflect.DeepEqual(got, realTreeTagUses) {
		t.Errorf("accepted uses of tags per Victim:\n got:  %v\n want: %v", got, realTreeTagUses)
	}
}
