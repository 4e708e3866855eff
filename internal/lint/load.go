package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis. For
// packages with in-package test files, Files includes them (analyzers see
// the test code), while importers of the package see the library view.
type Package struct {
	// Path is the import path ("popt/internal/cache"); external test
	// packages carry the go convention suffix (".test" files' package,
	// e.g. "popt [popt.test]" is reported as "popt_test").
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Standard     bool
}

// Loader type-checks the module's packages without golang.org/x/tools:
// package metadata comes from `go list -json`, in-module dependencies are
// type-checked recursively from source, and standard-library imports go
// through go/importer's source importer (which needs no precompiled
// export data, so it works in hermetic build environments).
type Loader struct {
	Dir  string // module root; "" = current directory
	fset *token.FileSet

	std  types.ImporterFrom
	meta map[string]*listedPackage
	libs map[string]*types.Package // import-path -> library view (no test files)
	work map[string]bool           // in-progress set for cycle detection
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Dir:  dir,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		meta: make(map[string]*listedPackage),
		libs: make(map[string]*types.Package),
		work: make(map[string]bool),
	}
}

// Load lists the packages matching patterns (e.g. "./...") and returns an
// analysis view of each: library + in-package test files, plus a separate
// entry for any external (_test package) files. Results are sorted by
// import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	// Every module package the listed ones import, from test files too,
	// resolves to one library view. Left to the stdlib source importer, a
	// dependency outside the patterns would be type-checked again with
	// its own copy of each module package it imports, whose types do not
	// unify with the listed packages' types.
	roots := append([]string{"-deps"}, patterns...)
	for _, p := range listed {
		roots = append(append(roots, p.TestImports...), p.XTestImports...)
	}
	deps, err := l.goList(roots)
	if err != nil {
		return nil, err
	}
	for _, p := range deps {
		if !p.Standard {
			l.meta[p.ImportPath] = p
		}
	}
	var pkgs []*Package
	for _, p := range listed {
		if len(p.GoFiles)+len(p.TestGoFiles) > 0 {
			pkg, err := l.checkFiles(p.ImportPath, p.Name, p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...))
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if len(p.XTestGoFiles) > 0 {
			xname := ""
			if p.Name != "" {
				xname = p.Name + "_test"
			}
			pkg, err := l.checkFiles(p.ImportPath+"_test", xname, p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// goList shells out to the go command for package metadata; it is the
// only part of the loader that is module-aware.
func (l *Loader) goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, &p)
	}
	return listed, nil
}

// Import implements types.Importer for the analysis type-checks: module
// packages resolve to their library view, everything else to the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.meta[path]; ok {
		return l.lib(p)
	}
	return l.std.Import(path)
}

// lib returns (building on demand) the library view of a module package.
func (l *Loader) lib(p *listedPackage) (*types.Package, error) {
	if pkg, ok := l.libs[p.ImportPath]; ok {
		return pkg, nil
	}
	if l.work[p.ImportPath] {
		return nil, fmt.Errorf("import cycle through %s", p.ImportPath)
	}
	l.work[p.ImportPath] = true
	defer delete(l.work, p.ImportPath)
	files, err := l.parse(p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p.ImportPath, l.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	l.libs[p.ImportPath] = pkg
	return pkg, nil
}

// checkFiles parses and type-checks one analysis view with full type
// information recorded.
func (l *Loader) checkFiles(path, name, dir string, fileNames []string) (*Package, error) {
	files, err := l.parse(dir, fileNames)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	if pkg.Name() != name && name != "" {
		// go list names xtest packages "foo_test" already; this is a
		// consistency check, not a user-visible condition.
		return nil, fmt.Errorf("package %s: declared name %s, go list says %s", path, pkg.Name(), name)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: pkg, Info: info}, nil
}

// parse parses the named files with comments (directives live there).
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
