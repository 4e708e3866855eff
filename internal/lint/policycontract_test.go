package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestPolicyContract runs the analyzer on the ReservedWays obligation and
// the direct write, retention and pointer shapes of the borrow check.
func TestPolicyContract(t *testing.T) {
	RunTest(t, "testdata", PolicyContract, "contract")
}

// TestBorrowFlow runs the analyzer on the borrow check's dataflow shapes:
// aliases through locals, helpers, embedding, closures and goroutines.
func TestBorrowFlow(t *testing.T) {
	RunTest(t, "testdata", PolicyContract, "borrow")
}

// TestPolicyContractRealTree runs the analyzer over every package that
// declares a Policy: it must find nothing, and its Victim matcher must
// match every Victim method declared there, so a change to the Victim
// signature cannot silently switch the analyzer off.
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
	victims := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "Victim" {
					continue
				}
				victims++
				if !isVictimSig(pkg.Info.Defs[fd.Name].(*types.Func)) {
					t.Errorf("%s: isVictimSig does not match this Victim method", pkg.Fset.Position(fd.Pos()))
				}
			}
		}
	}
	if victims < 17 {
		t.Errorf("found %d Victim methods in non-test files, want at least the 17 policies of the tree", victims)
	}
}
