package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is policycontract's borrow check: a flow-sensitive
// reaching-definitions walk over Victim that follows aliases of the
// borrowed tag row
//
//   - through local assignments, with kills on reassignment (x := tags;
//     x = nil; p.f = x is clean: the alias no longer reaches the store),
//   - into struct-field stores, composite literals, closures, channel
//     sends, and goroutines, flagging any path where borrowed storage
//     outlives the call,
//   - and across same-package helper calls: every helper reachable from
//     Victim gets a per-parameter summary (writes through it / retains it
//     / returns an alias of it), so delegation and embedding shapes are
//     still caught at the Victim call site.
//
// Delegating the borrow to another policy's Victim is allowed: the borrow
// obligation transfers to the delegate, which is itself analyzed when its
// package is. Passing an alias to any other function the analyzer cannot
// see is flagged; copy the needed data out instead.

// aliasKind classifies how an expression relates to the borrowed storage.
type aliasKind int

const (
	notAlias aliasKind = iota
	// storageAlias values point directly into the borrowed backing array:
	// the tags slice itself, re-slices, and &tags[i] pointers. Writing
	// through one corrupts simulator state.
	storageAlias
	// containerAlias values (structs, nested slices, maps, closures) hold
	// a storage alias indirectly. Writing through one is harmless, but
	// letting one outlive the call retains the borrow.
	containerAlias
)

// borrowAnalysis carries per-package state shared across walkers: the
// index of function declarations with bodies and memoized helper
// summaries.
type borrowAnalysis struct {
	pass       *Pass
	decls      map[*types.Func]*ast.FuncDecl
	summaries  map[summaryKey]paramSummary
	inProgress map[summaryKey]bool
}

type summaryKey struct {
	fn    *types.Func
	param int
}

// paramSummary describes what a helper does with one parameter when that
// parameter aliases borrowed storage.
type paramSummary struct {
	writes       bool // writes through the parameter's backing storage
	retains      bool // stores the parameter where it outlives the call
	returnsAlias bool // some result aliases the parameter
}

// checkVictim walks one Victim body with its tags parameter as the
// borrowed storage, reporting every write to and retention of it.
func (an *borrowAnalysis) checkVictim(fd *ast.FuncDecl) {
	tags := paramObject(an.pass, fd, 1)
	if tags == nil {
		return // unnamed or blank parameter: nothing can misuse it
	}
	w := &borrowWalker{
		an:       an,
		storage:  map[types.Object]bool{tags: true},
		contain:  map[types.Object]bool{},
		reported: map[string]bool{},
	}
	w.walkBlock(fd.Body.List)
}

// summaryFor computes (memoized) the summary of fn's param-th parameter.
// Recursive cycles resolve optimistically: the fixpoint of a self-call
// adds nothing beyond what the body itself does.
func (an *borrowAnalysis) summaryFor(fn *types.Func, param int) paramSummary {
	key := summaryKey{fn, param}
	if s, ok := an.summaries[key]; ok {
		return s
	}
	if an.inProgress[key] {
		return paramSummary{}
	}
	fd := an.decls[fn]
	obj := paramObject(an.pass, fd, param)
	if obj == nil {
		// Unnamed/blank parameter cannot be used by the body.
		an.summaries[key] = paramSummary{}
		return paramSummary{}
	}
	an.inProgress[key] = true
	w := &borrowWalker{
		an:      an,
		storage: map[types.Object]bool{obj: true},
		contain: map[types.Object]bool{},
		summary: &paramSummary{},
	}
	w.walkBlock(fd.Body.List)
	delete(an.inProgress, key)
	an.summaries[key] = *w.summary
	return *w.summary
}

// paramObject returns the object of fd's i-th parameter (flat index).
func paramObject(pass *Pass, fd *ast.FuncDecl, i int) types.Object {
	idx := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			if idx == i {
				return nil
			}
			idx++
			continue
		}
		for _, name := range field.Names {
			if idx == i {
				if name.Name == "_" {
					return nil
				}
				return pass.TypesInfo.Defs[name]
			}
			idx++
		}
	}
	return nil
}

// borrowWalker is one flow-sensitive pass over a function body. In entry
// mode (summary == nil) problems are reported as diagnostics; in summary
// mode they set the summary bits instead.
type borrowWalker struct {
	an      *borrowAnalysis
	storage map[types.Object]bool
	contain map[types.Object]bool
	summary *paramSummary

	reported map[string]bool // entry-mode finding dedupe across loop re-walks
}

const (
	problemWrite = iota
	problemRetain
)

// problem records a write/retention either as a diagnostic (entry mode)
// or as summary bits.
func (w *borrowWalker) problem(kind int, pos token.Pos, format string, args ...any) {
	if w.summary != nil {
		if kind == problemWrite {
			w.summary.writes = true
		} else {
			w.summary.retains = true
		}
		return
	}
	position := w.an.pass.Fset.Position(pos)
	key := position.String() + "|" + format
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.an.pass.Reportf(pos, format, args...)
}

// --- statement walking -------------------------------------------------

func (w *borrowWalker) walkBlock(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *borrowWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBlock(s.List)
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.IncDecStmt:
		if root, deref := w.rootOf(s.X); deref && root != nil && w.storage[root] {
			w.problem(problemWrite, s.X.Pos(),
				"Victim writes the borrowed tag storage through %s; tags aliases the level's tag store and must not be modified",
				exprString(s.X))
		}
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if w.eval(r) != notAlias && w.summary != nil {
				w.summary.returnsAlias = true
			}
		}
	case *ast.SendStmt:
		w.eval(s.Chan)
		if w.eval(s.Value) != notAlias {
			w.problem(problemRetain, s.Value.Pos(),
				"Victim sends an alias of the borrowed tag row on a channel; the receiver outlives the call's read-only borrow")
		}
	case *ast.GoStmt:
		w.goCall(s.Call)
	case *ast.DeferStmt:
		// A deferred call still runs before the borrow ends; analyze it
		// like a normal call.
		w.eval(s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.eval(s.Cond)
		then := w.fork()
		then.walkStmt(s.Body)
		w.merge(then)
		if s.Else != nil {
			els := w.fork()
			els.walkStmt(s.Else)
			w.merge(els)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.eval(s.Cond)
		}
		w.loopBody(func(it *borrowWalker) {
			it.walkStmt(s.Body)
			if s.Post != nil {
				it.walkStmt(s.Post)
			}
		})
	case *ast.RangeStmt:
		xKind := w.eval(s.X)
		w.loopBody(func(it *borrowWalker) {
			it.bindRangeVar(s.Key, notAlias)
			// The value variable copies one element; the copy is only an
			// alias when the element itself is indirect borrowed storage
			// (e.g. ranging over [][]uint64).
			vk := notAlias
			if xKind != notAlias && s.Value != nil {
				if tv, ok := w.an.pass.TypesInfo.Types[s.Value]; ok && borrowStorageType(tv.Type) {
					vk = storageAlias
				}
			}
			it.bindRangeVar(s.Value, vk)
			it.walkStmt(s.Body)
		})
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.eval(s.Tag)
		}
		w.walkClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkClauses(s.Body)
	case *ast.SelectStmt:
		w.walkClauses(s.Body)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					kind := notAlias
					if i < len(vs.Values) {
						kind = w.eval(vs.Values[i])
					}
					if obj := w.an.pass.TypesInfo.Defs[name]; obj != nil {
						w.bind(obj, kind)
					}
				}
			}
		}
	}
}

// walkClauses analyzes each clause of a switch/select body from a fork of
// the current state and merges the outcomes.
func (w *borrowWalker) walkClauses(body *ast.BlockStmt) {
	for _, clause := range body.List {
		c := w.fork()
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.eval(e)
			}
			c.walkBlock(cl.Body)
		case *ast.CommClause:
			if cl.Comm != nil {
				c.walkStmt(cl.Comm)
			}
			c.walkBlock(cl.Body)
		}
		w.merge(c)
	}
}

// loopBody runs body repeatedly until the alias state stops growing (a
// bounded fixpoint), so aliases created in one iteration are live in the
// next. Findings are deduplicated, so re-walking is safe.
func (w *borrowWalker) loopBody(body func(*borrowWalker)) {
	for i := 0; i < 4; i++ {
		before := len(w.storage) + len(w.contain)
		it := w.fork()
		body(it)
		w.merge(it)
		if len(w.storage)+len(w.contain) == before {
			return
		}
	}
}

// bindRangeVar tracks a range key/value variable.
func (w *borrowWalker) bindRangeVar(e ast.Expr, kind aliasKind) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := lhsObject(w.an.pass, id); obj != nil {
		w.bind(obj, kind)
	}
}

// fork clones the alias state for one branch; findings and summary bits
// stay shared.
func (w *borrowWalker) fork() *borrowWalker {
	c := *w
	c.storage = make(map[types.Object]bool, len(w.storage))
	for k, v := range w.storage { //lint:ordered
		c.storage[k] = v
	}
	c.contain = make(map[types.Object]bool, len(w.contain))
	for k, v := range w.contain { //lint:ordered
		c.contain[k] = v
	}
	return &c
}

// merge unions a branch's alias state back in (path-insensitive join).
func (w *borrowWalker) merge(c *borrowWalker) {
	for k := range c.storage { //lint:ordered
		w.storage[k] = true
	}
	for k := range c.contain { //lint:ordered
		w.contain[k] = true
	}
}

// bind records that obj now holds a value of the given kind, killing any
// previous alias fact (the reaching-definitions kill).
func (w *borrowWalker) bind(obj types.Object, kind aliasKind) {
	delete(w.storage, obj)
	delete(w.contain, obj)
	switch kind {
	case storageAlias:
		w.storage[obj] = true
	case containerAlias:
		w.contain[obj] = true
	}
}

// --- assignments -------------------------------------------------------

func (w *borrowWalker) walkAssign(as *ast.AssignStmt) {
	// Evaluate all RHS first (Go semantics), collecting kinds.
	kinds := make([]aliasKind, len(as.Lhs))
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			kinds[i] = w.eval(rhs)
		}
	} else if len(as.Rhs) == 1 {
		// Multi-value call/type-assert: apply the single kind to every LHS
		// whose static type can hold borrowed storage.
		k := w.eval(as.Rhs[0])
		for i, lhs := range as.Lhs {
			if tv, ok := w.an.pass.TypesInfo.Types[lhs]; ok && !borrowStorageType(tv.Type) && k == storageAlias {
				kinds[i] = notAlias
			} else {
				kinds[i] = k
			}
		}
	}
	for i, lhs := range as.Lhs {
		w.assignTo(lhs, kinds[i], as)
	}
}

// assignTo processes one LHS of an assignment whose RHS has the given
// alias kind.
func (w *borrowWalker) assignTo(lhs ast.Expr, kind aliasKind, as *ast.AssignStmt) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := lhsObject(w.an.pass, id)
		if obj == nil {
			return
		}
		if kind != notAlias && isPackageLevel(obj) {
			w.problem(problemRetain, lhs.Pos(),
				"Victim stores an alias of the borrowed tag row in package variable %s; tags is borrowed for the duration of the call",
				id.Name)
			return
		}
		w.bind(obj, kind)
		return
	}

	root, _ := w.rootOf(lhs)
	switch {
	case root != nil && w.storage[root]:
		// Any write through a storage alias mutates borrowed memory,
		// whatever is being stored.
		w.problem(problemWrite, lhs.Pos(),
			"Victim writes the borrowed tag storage through %s; tags aliases the level's tag store and must not be modified",
			exprString(lhs))
	case kind == notAlias:
		// Storing a non-alias somewhere: nothing to track.
	case root == nil || isPackageLevel(root) || outlivesCall(root):
		w.problem(problemRetain, lhs.Pos(),
			"Victim stores an alias of the borrowed tag row in %s, which outlives the call; copy the data instead of retaining the borrow",
			exprString(lhs))
	default:
		// Alias stored into a body-local composite (struct field, map or
		// slice element): the local becomes a container.
		w.contain[root] = true
	}
}

// rootOf walks an index/field/deref chain to its root object. deref
// reports whether the chain goes through at least one indexing, field
// selection, or pointer dereference (i.e. the LHS writes *through* the
// root rather than rebinding it).
func (w *borrowWalker) rootOf(e ast.Expr) (root types.Object, deref bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := w.an.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = w.an.pass.TypesInfo.Defs[x]
			}
			return obj, deref
		case *ast.IndexExpr:
			e, deref = x.X, true
		case *ast.SelectorExpr:
			e, deref = x.X, true
		case *ast.StarExpr:
			e, deref = x.X, true
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, deref
		}
	}
}

// isPackageLevel reports whether obj is a package-scope variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// outlivesCall reports whether writing through obj reaches memory that
// survives the call: pointer-typed variables (including pointer receivers
// and pointer parameters) point at caller-owned state.
func outlivesCall(obj types.Object) bool {
	if obj == nil {
		return true
	}
	t := obj.Type()
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return true
	}
	return false
}

// --- expression evaluation --------------------------------------------

// eval classifies e's value and analyzes any calls/closures inside it.
func (w *borrowWalker) eval(e ast.Expr) aliasKind {
	switch x := e.(type) {
	case nil:
		return notAlias
	case *ast.Ident:
		obj := w.an.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = w.an.pass.TypesInfo.Defs[x]
		}
		switch {
		case obj == nil:
			return notAlias
		case w.storage[obj]:
			return storageAlias
		case w.contain[obj]:
			return containerAlias
		}
		return notAlias
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.SliceExpr:
		if x.Low != nil {
			w.eval(x.Low)
		}
		if x.High != nil {
			w.eval(x.High)
		}
		if x.Max != nil {
			w.eval(x.Max)
		}
		return w.eval(x.X)
	case *ast.IndexExpr:
		w.eval(x.Index)
		base := w.eval(x.X)
		if base == notAlias {
			return notAlias
		}
		// tags[i] copies a tag (safe); container[i] may hand back
		// the stored slice.
		return w.kindByType(e, base)
	case *ast.SelectorExpr:
		base := w.eval(x.X)
		if base == notAlias {
			return notAlias
		}
		return w.kindByType(e, base)
	case *ast.StarExpr:
		base := w.eval(x.X)
		if base == notAlias {
			return notAlias
		}
		return w.kindByType(e, base)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			root, _ := w.rootOf(x.X)
			switch {
			case root != nil && w.storage[root]:
				return storageAlias // &tags[i]: pointer into borrowed storage
			case root != nil && w.contain[root]:
				return containerAlias
			}
			return w.eval(x.X)
		}
		w.eval(x.X)
		return notAlias
	case *ast.BinaryExpr:
		w.eval(x.X)
		w.eval(x.Y)
		return notAlias
	case *ast.KeyValueExpr:
		return w.eval(x.Value)
	case *ast.TypeAssertExpr:
		base := w.eval(x.X)
		if base == notAlias {
			return notAlias
		}
		return w.kindByType(e, base)
	case *ast.CompositeLit:
		kind := notAlias
		for _, el := range x.Elts {
			if w.eval(el) != notAlias {
				kind = containerAlias
			}
		}
		return kind
	case *ast.FuncLit:
		if w.capturesAlias(x) {
			// The closure value holds the borrow; whether that is a
			// problem depends on where the closure goes, so treat it as a
			// container and let stores/calls decide.
			return containerAlias
		}
		return notAlias
	case *ast.CallExpr:
		return w.evalCall(x)
	}
	return notAlias
}

// kindByType refines an alias derived from base projection (index, field,
// deref): the projected value is only dangerous if its own type can hold
// borrowed storage.
func (w *borrowWalker) kindByType(e ast.Expr, base aliasKind) aliasKind {
	tv, ok := w.an.pass.TypesInfo.Types[e]
	if !ok {
		return base
	}
	if borrowStorageType(tv.Type) {
		return storageAlias
	}
	if base == containerAlias && mayHoldStorage(tv.Type) {
		return containerAlias
	}
	return notAlias
}

// borrowStorageType reports whether t directly aliases tag storage:
// []uint64, *uint64, *[]uint64, or [][]uint64.
func borrowStorageType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isTag(u.Elem()) || borrowStorageType(u.Elem())
	case *types.Pointer:
		return isTag(u.Elem()) || borrowStorageType(u.Elem())
	}
	return false
}

// mayHoldStorage reports whether t could transitively contain borrowed
// storage (structs, maps, slices, funcs, interfaces — anything but plain
// scalars, tags among them).
func mayHoldStorage(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Basic:
		return false
	}
	return true
}

// capturesAlias reports whether a closure body references any tracked
// alias variable.
func (w *borrowWalker) capturesAlias(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := w.an.pass.TypesInfo.Uses[id]; obj != nil && (w.storage[obj] || w.contain[obj]) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// --- calls -------------------------------------------------------------

// evalCall analyzes a call's effect on tracked aliases and classifies its
// result.
func (w *borrowWalker) evalCall(call *ast.CallExpr) aliasKind {
	pass := w.an.pass

	// Type conversions propagate the operand's kind.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		kind := notAlias
		for _, arg := range call.Args {
			if k := w.eval(arg); k > kind {
				kind = k
			}
		}
		return kind
	}

	// Builtins.
	if name, ok := builtinName(pass, call.Fun); ok {
		return w.evalBuiltin(name, call)
	}

	// Immediately-invoked closure: its body runs now, under the current
	// alias state.
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		for _, arg := range call.Args {
			w.eval(arg)
		}
		w.walkStmt(fl.Body)
		return notAlias
	}

	// Resolve the callee.
	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		w.eval(fun.X)
		callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	default:
		w.eval(call.Fun)
	}

	result := notAlias
	for i, arg := range call.Args {
		kind := w.eval(arg)
		if kind == notAlias {
			continue
		}
		// A spread `tags...` into a variadic copies tag values: safe.
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 && kind == storageAlias {
			if tv, ok := pass.TypesInfo.Types[arg]; ok && isTagRow(tv.Type.Underlying()) {
				continue
			}
		}
		switch {
		case callee != nil && w.an.decls[callee] != nil:
			// Same-package helper with a body: consult its summary.
			s := w.an.summaryFor(callee, i)
			if s.writes && kind == storageAlias {
				w.problem(problemWrite, arg.Pos(),
					"Victim passes the borrowed tag row to %s, which writes through it; tags aliases the level's tag store and must not be modified",
					callee.Name())
			}
			if s.retains {
				w.problem(problemRetain, arg.Pos(),
					"Victim passes the borrowed tag row to %s, which retains it beyond the call; copy the data instead of storing the borrow",
					callee.Name())
			}
			if s.returnsAlias && result == notAlias {
				result = kind
			}
		case callee != nil && isVictimSig(callee):
			// Delegating the borrow to another policy's Victim transfers
			// the obligation; the delegate is analyzed in its own package.
		default:
			w.problem(problemRetain, arg.Pos(),
				"Victim passes an alias of the borrowed tag row to %s, which poptlint cannot analyze; copy the needed data out of tags instead",
				calleeName(call.Fun, callee))
		}
	}
	return result
}

// goCall flags aliases escaping into a goroutine, which by construction
// outlives the borrow discipline.
func (w *borrowWalker) goCall(call *ast.CallExpr) {
	escapes := false
	if fl, ok := call.Fun.(*ast.FuncLit); ok && w.capturesAlias(fl) {
		escapes = true
	}
	for _, arg := range call.Args {
		if w.eval(arg) != notAlias {
			escapes = true
		}
	}
	if escapes {
		w.problem(problemRetain, call.Pos(),
			"Victim hands an alias of the borrowed tag row to a goroutine; the goroutine outlives the call's read-only borrow")
	}
}

// evalBuiltin handles append/copy specially: appending to or copying into
// borrowed storage writes it.
func (w *borrowWalker) evalBuiltin(name string, call *ast.CallExpr) aliasKind {
	switch name {
	case "append":
		result := notAlias
		for i, arg := range call.Args {
			kind := w.eval(arg)
			if kind == notAlias {
				continue
			}
			if i == 0 && kind == storageAlias {
				w.problem(problemWrite, arg.Pos(),
					"Victim appends to the borrowed tag row; append may write the level's backing array in place")
				result = storageAlias
				continue
			}
			if call.Ellipsis.IsValid() && i == len(call.Args)-1 && kind == storageAlias {
				continue // spread copies tag values out: safe
			}
			if result == notAlias {
				result = containerAlias
			}
		}
		return result
	case "copy":
		if len(call.Args) == 2 {
			if w.eval(call.Args[0]) == storageAlias {
				w.problem(problemWrite, call.Args[0].Pos(),
					"Victim copies into the borrowed tag row; tags aliases the level's tag store and must not be modified")
			}
			w.eval(call.Args[1]) // reading out of the borrow is fine
		}
		return notAlias
	default:
		for _, arg := range call.Args {
			w.eval(arg)
		}
		return notAlias
	}
}

// builtinName resolves call.Fun to a builtin's name, if it is one.
func builtinName(pass *Pass, fun ast.Expr) (string, bool) {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return id.Name, true
	}
	return "", false
}

// calleeName renders the callee for diagnostics.
func calleeName(fun ast.Expr, callee *types.Func) string {
	if callee != nil {
		return callee.Name()
	}
	return exprString(fun)
}
