package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FrozenTypes is the registry of shared-artifact types whose values are
// immutable once published: every concurrent sweep cell reads them without
// synchronization, so a single post-publication store is a data race the
// dynamic detector only catches probabilistically. Each listed type must
// carry a `//popt:frozen` directive on its declaration (the sharefreeze
// analyzer cross-checks registry and annotation), and unexported frozen
// types are picked up from their annotation alone — the registry exists so
// packages that only *import* a frozen type (where the declaration's
// comments are invisible) still get stores through it flagged.
var FrozenTypes = []string{
	"popt/internal/core.Table",
	"popt/internal/core.LineRefs",
	"popt/internal/graph.Graph",
	"popt/internal/graph.Adj",
	"popt/internal/trace.LLCTrace",
	"popt/internal/corpus.Entry",
}

// NewShareFreeze builds the publish-safety analyzer over the given frozen
// registry (default: FrozenTypes). One flow-sensitive walk of each
// function enforces the three contracts that let sweep cells share their
// inputs (DESIGN.md §9):
//
//   - Freeze. A type is frozen if it is in the registry or its declaration
//     carries `//popt:frozen`. A frozen value is mutable only while it is
//     *fresh* — locally constructed (composite literal, new, zero-value
//     local) and not yet published — directly, through same-package
//     helpers, closures, and goroutines launched during construction (the
//     parallel fills). Publication — storing the value into a package
//     variable, a non-fresh container or a channel, or passing it to a
//     function the analyzer cannot see into — ends construction. Later
//     stores, appends and copies through the value or through an alias of
//     its interior storage are flagged, interprocedurally: same-package
//     helpers get per-parameter (and per-receiver) summaries, and call
//     sites inherit the helper's offending store chain. An exported
//     function or method that writes through a frozen parameter or
//     receiver is flagged at its declaration, since its callers are
//     invisible.
//   - Guards. A field annotated `//popt:guardedby <sibling>` is touched
//     only on paths that hold the sibling guard: a sync.Mutex after Lock
//     (a deferred Unlock keeps it held), or a sync.Once. A once-guarded
//     field is written only inside its Do closure, and read only inside
//     the closure or after the Do. A goroutine holds no guard its
//     launcher held.
//   - Captures. A goroutine launched inside a loop writes captured state
//     only at disjoint slots: a captured slice or array indexed by values
//     local to the goroutine. Captured variables, maps and pointers are
//     shared by every iteration's goroutine.
//
// Branches join by intersecting freshness and held guards and by uniting
// published values and aliases; a branch that ends in return does not
// rejoin.
func NewShareFreeze(registry ...string) *Analyzer {
	return newShareFreeze(registry, nil)
}

// shareRecord collects what the analyzer resolved and walked across the
// packages of a run, so a test can pin the walk on the real tree.
type shareRecord struct {
	frozen  map[string]bool   // qualified frozen types: registry plus annotations
	guarded map[string]string // package.Owner.field -> guard
	loopGo  map[string]string // functions launching a goroutine in a loop -> file
}

func newShareFreeze(registry []string, rec *shareRecord) *Analyzer {
	if len(registry) == 0 {
		registry = FrozenTypes
	}
	a := &Analyzer{
		Name: "sharefreeze",
		Doc: "flags stores to //popt:frozen shared sweep inputs " +
			"after they escape their constructor, //popt:guardedby " +
			"fields touched without their sync.Mutex or outside their " +
			"sync.Once, and loop-launched goroutines writing captured state " +
			"outside disjoint slots",
	}
	a.Run = func(pass *Pass) error {
		an := &shareAnalysis{
			pass:      pass,
			registry:  make(map[string]bool, len(registry)),
			frozen:    make(map[*types.TypeName]bool),
			guards:    make(map[*types.Var]guardSpec),
			decls:     make(map[*types.Func]*ast.FuncDecl),
			summaries: make(map[freezeSumKey]freezeSummary),
			inFlight:  make(map[freezeSumKey]bool),
			rec:       rec,
		}
		for _, name := range registry {
			an.registry[name] = true
		}
		for _, file := range pass.Files {
			an.scanDecls(file)
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				newShareWalker(an, fd).walkBlock(fd.Body.List)
				an.checkExportedMutator(fd)
			}
		}
		return nil
	}
	return a
}

// freezeKind classifies how an expression relates to frozen memory.
type freezeKind int

const (
	fkNone freezeKind = iota
	// fkFresh: an under-construction frozen value (or storage inside one);
	// stores are constructor work and allowed.
	fkFresh
	// fkPub: a published frozen value; stores through it are violations.
	fkPub
	// fkStore: interior storage (slice/map/pointer) of a published frozen
	// value; writes through it mutate frozen memory.
	fkStore
)

// shareAnalysis carries per-package state: the frozen type set, the guarded
// fields, the declaration index, and memoized helper summaries.
type shareAnalysis struct {
	pass      *Pass
	registry  map[string]bool
	frozen    map[*types.TypeName]bool
	guards    map[*types.Var]guardSpec
	decls     map[*types.Func]*ast.FuncDecl
	summaries map[freezeSumKey]freezeSummary
	inFlight  map[freezeSumKey]bool
	rec       *shareRecord
}

// guardSpec resolves one annotated field to its guard.
type guardSpec struct {
	guard *types.Var // the sibling guard field
	once  bool       // a sync.Once rather than a sync.Mutex
	name  string     // the annotation text, for diagnostics
}

// scanDecls is the one declaration scan: it indexes function declarations
// for helper summaries, resolves the frozen types declared here
// (cross-checking the registry), and resolves every //popt:guardedby field
// of every struct type, named or anonymous, to its guard sibling.
func (an *shareAnalysis) scanDecls(file *ast.File) {
	pass := an.pass
	owner := "" // the declaration enclosing the struct types seen next
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
				an.decls[fn] = n
			}
			owner = n.Name.Name
		case *ast.GenDecl:
			if n.Tok == token.TYPE {
				for _, spec := range n.Specs {
					an.scanFrozen(n, spec.(*ast.TypeSpec))
				}
			}
		case *ast.TypeSpec:
			owner = n.Name.Name
		case *ast.ValueSpec:
			owner = n.Names[0].Name
		case *ast.StructType:
			an.scanGuards(n, owner)
		}
		return true
	})
}

func (an *shareAnalysis) scanFrozen(gd *ast.GenDecl, ts *ast.TypeSpec) {
	tn, ok := an.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	switch {
	case hasFrozenDirective(gd.Doc) || hasFrozenDirective(ts.Doc) || hasFrozenDirective(ts.Comment):
	case an.registry[qualifiedTypeName(tn)]:
		an.pass.Reportf(ts.Name.Pos(),
			"%s is registered in lint.FrozenTypes but its declaration has no //popt:frozen directive; annotate the type so the freeze contract is visible at the definition",
			tn.Name())
	default:
		return
	}
	an.frozen[tn] = true
	if an.rec != nil {
		an.rec.frozen[qualifiedTypeName(tn)] = true
	}
}

func (an *shareAnalysis) scanGuards(st *ast.StructType, owner string) {
	str, ok := an.pass.TypesInfo.Types[st].Type.(*types.Struct)
	if !ok {
		return
	}
	idx := 0
	for _, field := range st.Fields.List {
		n := max(len(field.Names), 1) // an embedded field has no names
		ann := guardAnnotation(field.Doc)
		if ann == "" {
			ann = guardAnnotation(field.Comment)
		}
		for ; n > 0 && idx < str.NumFields(); n-- {
			fv := str.Field(idx)
			idx++
			if ann == "" {
				continue
			}
			guard := findField(str, ann)
			if guard == nil {
				an.pass.Reportf(field.Pos(),
					"//popt:guardedby %s on %s names no sibling field; the guard must be declared in the same struct",
					ann, fv.Name())
				continue
			}
			switch kind := syncTypeName(guard.Type()); kind {
			case "Mutex", "Once":
				an.guards[fv] = guardSpec{guard: guard, once: kind == "Once", name: ann}
				if an.rec != nil {
					an.rec.guarded[an.pass.Pkg.Name()+"."+owner+"."+fv.Name()] = ann
				}
			default:
				an.pass.Reportf(field.Pos(),
					"//popt:guardedby %s on %s: %s is %s, not a sync.Mutex or sync.Once",
					ann, fv.Name(), ann, guard.Type().String())
			}
		}
	}
}

// hasFrozenDirective reports whether a comment group contains //popt:frozen.
func hasFrozenDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == "//popt:frozen" || strings.HasPrefix(text, "//popt:frozen ") {
			return true
		}
	}
	return false
}

// guardAnnotation extracts the field name from a //popt:guardedby comment.
func guardAnnotation(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if rest, ok := strings.CutPrefix(text, "//popt:guardedby"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				return fields[0]
			}
		}
	}
	return ""
}

func findField(str *types.Struct, name string) *types.Var {
	for i := 0; i < str.NumFields(); i++ {
		if f := str.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// syncTypeName names t if it is a sync package type (through pointers).
func syncTypeName(t types.Type) string {
	named, ok := derefAll(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return named.Obj().Name()
}

func qualifiedTypeName(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// freezeSumKey identifies one (function, parameter) summary; param -1 is
// the receiver.
type freezeSumKey struct {
	fn    *types.Func
	param int
}

// freezeSummary describes what a helper does when the given parameter (or
// receiver) is a published frozen value.
type freezeSummary struct {
	writes    bool   // stores into frozen memory reachable from the param
	publishes bool   // stores the param where it outlives the call
	where     string // offending store chain, e.g. "t.entries[i] at file.go:12"
}

// isFrozen reports whether t (after stripping pointers) is a frozen named
// type: locally annotated or in the registry.
func (an *shareAnalysis) isFrozen(t types.Type) bool {
	named, ok := derefAll(t).(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return an.frozen[tn] || an.registry[qualifiedTypeName(tn)]
}

func derefAll(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// refLike reports whether a value of type t can reference memory (rather
// than copy it): writing through such a value can reach frozen storage.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// checkExportedMutator flags exported functions whose summary writes
// frozen memory through a parameter or receiver: external callers cannot
// be analyzed, so the frozen contract forbids exported mutators outright.
func (an *shareAnalysis) checkExportedMutator(fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	fn, ok := an.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	check := func(idx int, v *types.Var, what string) {
		if v == nil || !an.isFrozen(v.Type()) {
			return
		}
		if s := an.summaryFor(fn, idx); s.writes {
			an.pass.Reportf(fd.Name.Pos(),
				"exported %s writes frozen %s through its %s (%s); frozen types may only be mutated inside their constructors",
				fd.Name.Name, typeShort(v.Type()), what, s.where)
		}
	}
	check(-1, sig.Recv(), "receiver")
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		check(i, p, "parameter "+p.Name())
	}
}

// typeShort renders a type's base name for diagnostics.
func typeShort(t types.Type) string {
	t = derefAll(t)
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// summaryFor computes (memoized) what fn does with its param-th parameter
// (-1 = receiver) when that argument is a published frozen value.
// Recursive cycles resolve optimistically: the fixpoint of a self-call
// adds nothing beyond what the body itself does. External and bodyless
// functions have no summary (zero value).
func (an *shareAnalysis) summaryFor(fn *types.Func, param int) freezeSummary {
	key := freezeSumKey{fn, param}
	if s, ok := an.summaries[key]; ok || an.inFlight[key] {
		return s
	}
	fd := an.decls[fn]
	if fd == nil || fd.Body == nil {
		return freezeSummary{}
	}
	var obj types.Object
	if param >= 0 {
		obj = paramObject(an.pass, fd, param)
	} else if fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 && fd.Recv.List[0].Names[0].Name != "_" {
		obj = an.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	}
	if obj == nil {
		an.summaries[key] = freezeSummary{}
		return freezeSummary{}
	}
	an.inFlight[key] = true
	w := newShareWalker(an, fd)
	w.summary = &freezeSummary{}
	w.pub[obj] = true
	w.walkBlock(fd.Body.List)
	delete(an.inFlight, key)
	an.summaries[key] = *w.summary
	return *w.summary
}

// guardKey identifies one held guard: the root object the access chain
// bottoms out in (a local, a receiver, a package variable) plus the guard
// field within it.
type guardKey struct {
	root  types.Object
	guard *types.Var
}

// hold is how much a path holds a guard: a locked mutex or a running Do
// closure allows reads and writes; a completed Do allows reads only.
type hold uint8

const (
	holdNone hold = iota
	holdRead
	holdAll
)

// shareWalker is one flow-sensitive pass over a function body, carrying
// the state of all three contracts. In entry mode (summary == nil) locally
// constructed frozen values are tracked as fresh, published ones as pub,
// and violations are reported; parameters are deliberately untracked —
// writes through them are judged at call sites via summaries (and at the
// declaration for exported functions). In summary mode only the subject
// parameter starts in pub, problems set summary bits instead of
// reporting, and the guard and capture checks are off.
type shareWalker struct {
	an *shareAnalysis
	fd *ast.FuncDecl

	// Freeze half.
	fresh map[types.Object]bool
	store map[types.Object]bool
	pub   map[types.Object]bool
	// Guard half: the guards this path holds.
	held map[guardKey]hold
	// Capture half: loops lexically enclosing the walk, and the
	// loop-launched goroutine closure being walked, if any.
	loops   int
	capture *ast.FuncLit

	summary  *freezeSummary
	reported map[string]bool
}

func newShareWalker(an *shareAnalysis, fd *ast.FuncDecl) *shareWalker {
	return &shareWalker{
		an:       an,
		fd:       fd,
		fresh:    map[types.Object]bool{},
		store:    map[types.Object]bool{},
		pub:      map[types.Object]bool{},
		held:     map[guardKey]hold{},
		reported: map[string]bool{},
	}
}

// report emits one finding per (position, message class): loop bodies are
// walked more than once.
func (w *shareWalker) report(pos token.Pos, format string, args ...any) {
	key := w.an.pass.Fset.Position(pos).String() + "|" + format
	if !w.reported[key] {
		w.reported[key] = true
		w.an.pass.Reportf(pos, format, args...)
	}
}

// writeProblem records a store into frozen memory as a diagnostic (entry
// mode) or summary bits (summary mode). where is the store-chain rendering
// carried by summaries so call-site diagnostics can name the offending
// store.
func (w *shareWalker) writeProblem(pos token.Pos, where string, format string, args ...any) {
	if w.summary == nil {
		w.report(pos, format, args...)
		return
	}
	w.summary.writes = true
	if w.summary.where == "" {
		w.summary.where = where + " at " + w.an.pass.Fset.Position(pos).String()
	}
}

// --- paths ---------------------------------------------------------------

func (w *shareWalker) fork() *shareWalker {
	c := *w
	c.fresh = copySet(w.fresh)
	c.store = copySet(w.store)
	c.pub = copySet(w.pub)
	c.held = make(map[guardKey]hold, len(w.held))
	for k, h := range w.held { //lint:ordered
		c.held[k] = h
	}
	return &c
}

func copySet(m map[types.Object]bool) map[types.Object]bool {
	c := make(map[types.Object]bool, len(m))
	for k := range m { //lint:ordered
		c[k] = true
	}
	return c
}

// join merges a path that rejoins this one: freshness and held guards
// survive only if both paths keep them (a branch that publishes a value
// ends its construction window; a lock taken on one branch is not held
// after it), while published values and aliases union in.
func (w *shareWalker) join(c *shareWalker) {
	w.joinFreeze(c)
	for k, h := range w.held { //lint:ordered
		if h = min(h, c.held[k]); h == holdNone {
			delete(w.held, k)
		} else {
			w.held[k] = h
		}
	}
}

// joinFreeze merges the freeze half only: a closure's body may run at any
// point, so it can end construction, but it moves no guard of this path.
func (w *shareWalker) joinFreeze(c *shareWalker) {
	for k := range w.fresh { //lint:ordered
		if !c.fresh[k] {
			delete(w.fresh, k)
		}
	}
	for k := range c.store { //lint:ordered
		w.store[k] = true
	}
	for k := range c.pub { //lint:ordered
		if !w.fresh[k] {
			w.pub[k] = true
		}
	}
}

// rejoin continues with the join of the paths that fall through (nil
// entries ended in return); if none does, the state stays as it was.
func (w *shareWalker) rejoin(paths []*shareWalker) {
	var out *shareWalker
	for _, p := range paths {
		switch {
		case p == nil:
		case out == nil:
			out = p
		default:
			out.join(p)
		}
	}
	if out != nil {
		w.fresh, w.store, w.pub, w.held = out.fresh, out.store, out.pub, out.held
	}
}

// path walks stmts on a fork, returning nil if they end in return.
func (w *shareWalker) path(stmts []ast.Stmt) *shareWalker {
	c := w.fork()
	c.walkBlock(stmts)
	if len(stmts) > 0 && terminates(stmts[len(stmts)-1]) {
		return nil
	}
	return c
}

// terminates reports whether the statement (usually a branch body) ends in
// a return — control never rejoins, so its state must not merge.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		return len(s.List) > 0 && terminates(s.List[len(s.List)-1])
	case *ast.LabeledStmt:
		return terminates(s.Stmt)
	}
	return false
}

// loopBody walks a loop body to a bounded fixpoint, so aliases created and
// guards released in one iteration are seen by the next; findings are
// deduplicated, so re-walking is safe. The join only shrinks freshness
// and held guards and only grows published values and aliases, so a
// repeated size means a repeated state.
func (w *shareWalker) loopBody(body func(*shareWalker)) {
	size := func() int {
		n := len(w.store) + len(w.pub) - len(w.fresh)
		for _, h := range w.held { //lint:ordered
			n -= int(h)
		}
		return n
	}
	w.loops++
	for i := 0; i < 4; i++ {
		before := size()
		it := w.fork()
		body(it)
		w.join(it)
		if size() == before {
			break
		}
	}
	w.loops--
}

// --- statements ----------------------------------------------------------

func (w *shareWalker) walkBlock(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *shareWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkBlock(s.List)
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.IncDecStmt:
		w.checkWrite(s.X)
		w.checkCaptured(s.X)
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.eval(r)
		}
	case *ast.SendStmt:
		w.eval(s.Chan)
		if k, root := w.eval(s.Value); k == fkFresh {
			// Sending the fresh value publishes it to the receiver.
			w.publish(root)
		}
	case *ast.GoStmt:
		w.goCall(s.Call)
	case *ast.DeferStmt:
		// A deferred Unlock runs at function exit: the guard stays held
		// for the rest of the body.
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
			if _, _, ok := w.syncCall(sel); ok {
				return
			}
		}
		w.evalCall(s.Call)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.eval(s.Cond)
		paths := []*shareWalker{w.path(s.Body.List)}
		if s.Else != nil {
			paths = append(paths, w.path([]ast.Stmt{s.Else}))
		} else {
			paths = append(paths, w.fork())
		}
		w.rejoin(paths)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.eval(s.Cond)
		w.loopBody(func(it *shareWalker) {
			it.walkStmt(s.Body)
			if s.Post != nil {
				it.walkStmt(s.Post)
			}
		})
	case *ast.RangeStmt:
		xKind, _ := w.eval(s.X)
		w.loopBody(func(it *shareWalker) {
			it.bindRange(s.Key, fkNone)
			it.bindRange(s.Value, xKind)
			it.walkStmt(s.Body)
		})
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.eval(s.Tag)
		w.walkClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.walkStmt(s.Assign)
		w.walkClauses(s.Body)
	case *ast.SelectStmt:
		w.walkClauses(s.Body)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				kind := fkNone
				obj := w.an.pass.TypesInfo.Defs[name]
				switch {
				case i < len(vs.Values):
					kind, _ = w.eval(vs.Values[i])
				case len(vs.Values) == 0 && w.summary == nil && obj != nil && w.an.isFrozen(obj.Type()):
					kind = fkFresh // var t Table: the zero value is fresh
				}
				if obj != nil {
					w.bind(obj, kind)
				}
			}
		}
	}
}

// walkClauses walks each case or comm clause from the current state and
// continues with the join of the clauses that fall through and the path on
// which no clause runs.
func (w *shareWalker) walkClauses(body *ast.BlockStmt) {
	paths := []*shareWalker{w.fork()}
	for _, clause := range body.List {
		c := w.fork()
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.eval(e)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				c.walkStmt(cl.Comm)
			}
			stmts = cl.Body
		}
		paths = append(paths, c.path(stmts))
	}
	w.rejoin(paths)
}

// bindRange binds a range variable to the kind of an element of a
// container of kind x (fkNone for the key). Like an indexed element, a
// frozen value ranged out of an untracked container is published.
func (w *shareWalker) bindRange(e ast.Expr, x freezeKind) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := lhsObject(w.an.pass, id)
	if obj == nil {
		return
	}
	switch t := obj.Type(); {
	case w.an.isFrozen(t) && x == fkFresh:
	case w.an.isFrozen(t) && (x != fkNone || w.summary == nil):
		x = fkPub
	case !refLike(t) || x == fkNone:
		x = fkNone
	case x != fkFresh:
		x = fkStore
	}
	w.bind(obj, x)
}

func (w *shareWalker) bind(obj types.Object, kind freezeKind) {
	delete(w.fresh, obj)
	delete(w.store, obj)
	delete(w.pub, obj)
	switch kind {
	case fkFresh:
		w.fresh[obj] = true
	case fkStore:
		w.store[obj] = true
	case fkPub:
		w.pub[obj] = true
	}
}

// publish ends a value's construction window: the local now names a
// published value and later stores through it are violations.
func (w *shareWalker) publish(root types.Object) {
	if root != nil && w.fresh[root] {
		delete(w.fresh, root)
		w.pub[root] = true
	}
}

// --- assignments ---------------------------------------------------------

func (w *shareWalker) walkAssign(as *ast.AssignStmt) {
	kinds := make([]freezeKind, len(as.Lhs))
	roots := make([]types.Object, len(as.Lhs))
	if len(as.Rhs) == len(as.Lhs) {
		for i, rhs := range as.Rhs {
			kinds[i], roots[i] = w.eval(rhs)
		}
	} else if len(as.Rhs) == 1 {
		k, r := w.eval(as.Rhs[0])
		for i := range as.Lhs {
			kinds[i], roots[i] = k, r
		}
	}
	for i, lhs := range as.Lhs {
		w.assignTo(lhs, kinds[i], roots[i])
		w.checkCaptured(lhs)
	}
}

func (w *shareWalker) assignTo(lhs ast.Expr, kind freezeKind, rhsRoot types.Object) {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := lhsObject(w.an.pass, id)
		if obj == nil {
			return
		}
		if kind == fkFresh && isPackageLevel(obj) {
			// Assigning to a package variable publishes the value. The
			// package variable itself classifies as published by type on
			// every later use.
			w.publish(rhsRoot)
			return
		}
		w.bind(obj, kind)
		return
	}
	// Structured target: first, is the write itself legal?
	w.checkWrite(lhs)
	// Second, does the store publish a fresh RHS? Storing into a fresh
	// container keeps construction open; anything else ends it.
	if kind == fkFresh && rhsRoot != nil {
		if root, _ := writeRoot(w.an.pass, lhs); root == nil || !w.fresh[root] {
			w.publish(rhsRoot)
		}
	}
}

// checkWrite judges a structured store. It peels the target chain
// outside-in: the outermost selected field is checked as a guarded write
// and every field below it as a guarded read; a selection owned by a
// frozen struct is judged by its owner's freeze kind, and any base
// classifying as published frozen (or interior storage of one) is a
// violation.
func (w *shareWalker) checkWrite(lhs ast.Expr) {
	written := true
	e := lhs
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			w.access(x, written)
			written = false
			if owner, ok := w.frozenFieldOwner(x); ok {
				switch k, _ := w.eval(x.X); k {
				case fkPub, fkStore:
					w.writeProblem(lhs.Pos(), exprString(lhs),
						"%s stores to %s, mutating frozen %s after publication; frozen shared artifacts are immutable once they escape their constructor",
						w.fd.Name.Name, exprString(lhs), owner)
				}
				// fkFresh is constructor work; fkNone is an untracked base
				// (a parameter) whose writes are judged at call sites.
				return
			}
			e = x.X
		case *ast.IndexExpr:
			w.eval(x.Index)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			w.eval(x.Low)
			w.eval(x.High)
			w.eval(x.Max)
			e = x.X
		case *ast.Ident:
			if e == lhs {
				return // plain rebind, handled by bind
			}
			obj := lhsObject(w.an.pass, x)
			switch {
			case obj == nil || w.fresh[obj]:
			case w.store[obj]:
				w.writeProblem(lhs.Pos(), exprString(lhs),
					"%s writes frozen shared storage through alias %s; copy the data out instead of mutating the shared artifact",
					w.fd.Name.Name, x.Name)
			case w.pub[obj] || w.pkgLevelFrozen(obj):
				w.writeProblem(lhs.Pos(), exprString(lhs),
					"%s stores to %s, mutating frozen %s after publication; frozen shared artifacts are immutable once they escape their constructor",
					w.fd.Name.Name, exprString(lhs), typeShort(obj.Type()))
			}
			return
		default:
			// Call results, etc.: classify and judge.
			if k, _ := w.eval(e); k == fkPub || k == fkStore {
				w.writeProblem(lhs.Pos(), exprString(lhs),
					"%s stores to %s, which reaches frozen shared memory; frozen artifacts are immutable once published",
					w.fd.Name.Name, exprString(lhs))
			}
			return
		}
	}
}

// checkCaptured flags a write, inside a goroutine launched in a loop, to
// state captured from outside the goroutine's closure: every iteration's
// goroutine shares it. A captured slice or array may be written only at a
// goroutine-local index — the disjoint-slot idiom (`errs[i] = ...` with i
// a closure parameter) the worker pools rely on.
func (w *shareWalker) checkCaptured(lhs ast.Expr) {
	if w.capture == nil || w.summary != nil {
		return
	}
	pass := w.an.pass
	root, _ := writeRoot(pass, lhs)
	if _, ok := root.(*types.Var); !ok || w.local(root) {
		return
	}
	switch x := lhs.(type) {
	case *ast.Ident:
		w.report(lhs.Pos(),
			"goroutine in a loop assigns to captured variable %s; every worker shares one slot, so the result depends on scheduling — use a per-iteration variable or a channel",
			x.Name)
	case *ast.IndexExpr:
		switch typeOf(pass, x.X).Underlying().(type) {
		case *types.Map:
			w.report(lhs.Pos(),
				"goroutine in a loop writes captured map %s; concurrent map writes fault — collect per-goroutine results and merge after the join",
				exprString(x.X))
		case *types.Slice, *types.Array, *types.Pointer:
			if !w.localIndex(x.Index) {
				w.report(lhs.Pos(),
					"goroutine in a loop writes captured slice %s at an index that is not goroutine-local; disjoint-slot writes must index with a closure parameter or local",
					exprString(x.X))
			}
		}
	case *ast.SelectorExpr, *ast.StarExpr:
		w.report(lhs.Pos(),
			"goroutine in a loop writes shared state through captured %s; shared mutation from loop workers needs a lock (//popt:guardedby) or a frozen constructor, not a bare captured pointer",
			root.Name())
	}
}

// local reports whether obj is declared inside the loop-launched
// goroutine's closure (parameters and locals), making writes through it
// goroutine-private.
func (w *shareWalker) local(obj types.Object) bool {
	return obj.Pos() >= w.capture.Pos() && obj.Pos() <= w.capture.End()
}

// localIndex reports whether every variable in an index expression is
// goroutine-local — the disjoint-slot proof.
func (w *shareWalker) localIndex(index ast.Expr) bool {
	local := true
	ast.Inspect(index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := w.an.pass.TypesInfo.Uses[id].(*types.Var); ok && !w.local(v) {
				local = false
			}
		}
		return local
	})
	return local
}

// pkgLevelFrozen reports whether obj is a package-level variable of frozen
// type: such a variable is published by construction. Only meaningful in
// entry mode — summaries blame exactly their subject.
func (w *shareWalker) pkgLevelFrozen(obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok || w.summary != nil {
		return false
	}
	return isPackageLevel(obj) && w.an.isFrozen(obj.Type())
}

// frozenFieldOwner reports whether sel selects a field whose owning struct
// is frozen, returning the owner's name. Promoted selections (reaching the
// field through embedding) count: the embedded frozen value is shared
// whatever wrapper it rides in.
func (w *shareWalker) frozenFieldOwner(sel *ast.SelectorExpr) (string, bool) {
	s, ok := w.an.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	// Walk the selection index through the receiver type to the struct
	// that declares the field.
	t := s.Recv()
	index := s.Index()
	for _, i := range index[:len(index)-1] {
		st, ok := derefAll(t).Underlying().(*types.Struct)
		if !ok {
			return "", false
		}
		t = st.Field(i).Type()
	}
	if w.an.isFrozen(t) {
		return typeShort(t), true
	}
	return "", false
}

// access checks one use of a selected field against its //popt:guardedby
// guard; write marks the field as the target of a store.
func (w *shareWalker) access(sel *ast.SelectorExpr, write bool) {
	if w.summary != nil {
		return
	}
	pass := w.an.pass
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	spec, ok := w.an.guards[s.Obj().(*types.Var)]
	if !ok {
		return
	}
	h := holdNone
	if root, _ := writeRoot(pass, sel.X); root != nil {
		h = w.held[guardKey{root: root, guard: spec.guard}]
	}
	switch {
	case !spec.once && h == holdNone:
		w.report(sel.Pos(),
			"%s accesses %s without holding %s (//popt:guardedby); lock %s around the access",
			w.fd.Name.Name, exprString(sel), spec.name, spec.name)
	case spec.once && write && h != holdAll:
		w.report(sel.Pos(),
			"%s writes %s, which is guarded by sync.Once %s, outside its Do closure; a once-guarded field is written only inside the Do",
			w.fd.Name.Name, exprString(sel), spec.name)
	case spec.once && h == holdNone:
		w.report(sel.Pos(),
			"%s accesses %s, which is guarded by sync.Once %s, outside its Do; read it inside the Do closure or after the Do call",
			w.fd.Name.Name, exprString(sel), spec.name)
	}
}

// --- expressions -----------------------------------------------------------

// eval classifies e and returns its kind plus, when the value is rooted at
// a tracked object, that root (used for publication kills). Every field
// selection it passes through is checked as a guarded read.
func (w *shareWalker) eval(e ast.Expr) (freezeKind, types.Object) {
	pass := w.an.pass
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = pass.TypesInfo.Defs[x]
		}
		switch {
		case obj == nil || isTypeOrFunc(obj):
		case w.fresh[obj]:
			return fkFresh, obj
		case w.store[obj]:
			return fkStore, obj
		case w.pub[obj] || w.pkgLevelFrozen(obj):
			return fkPub, obj
		}
		return fkNone, nil
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.CompositeLit:
		// A frozen literal is fresh, and so is a container literal of
		// fresh values (`[]*Adj{&g.Out, &g.In}` during construction).
		kind := fkNone
		for _, el := range x.Elts {
			if k, _ := w.eval(el); k == fkFresh {
				kind = fkFresh
			}
		}
		if w.summary == nil && w.an.isFrozen(typeOf(pass, x)) {
			return fkFresh, nil
		}
		return kind, nil
	case *ast.KeyValueExpr:
		return w.eval(x.Value)
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			w.eval(x.X)
			return fkNone, nil
		}
		if cl, ok := x.X.(*ast.CompositeLit); ok {
			return w.eval(cl)
		}
		switch k, root := w.eval(x.X); k {
		case fkFresh:
			return fkFresh, root
		case fkPub, fkStore:
			return fkStore, root
		}
		// &expr where a prefix of expr is frozen: pointer into frozen
		// storage (e.g. &g.In on a published Graph).
		if w.chainTouchesFrozen(x.X) {
			return fkStore, nil
		}
		return fkNone, nil
	case *ast.StarExpr:
		k, root := w.eval(x.X)
		return w.project(e, k), root
	case *ast.SelectorExpr:
		w.access(x, false)
		baseKind, baseRoot := w.eval(x.X)
		// A frozen-typed selection inherits the base: fresh stays fresh,
		// published stays published; untracked bases stay untracked (a
		// helper's writes through its parameters are judged at call
		// sites).
		if w.an.isFrozen(typeOf(pass, e)) {
			switch {
			case baseKind == fkFresh:
				return fkFresh, baseRoot
			case baseKind != fkNone:
				return fkPub, nil
			case w.summary == nil && w.rootedAtPackageLevel(x.X):
				// A frozen value reached through package-level state is
				// published even when the container itself is not frozen.
				return fkPub, nil
			}
			return fkNone, nil
		}
		if _, isFrozenField := w.frozenFieldOwner(x); isFrozenField {
			switch {
			case baseKind == fkFresh:
				return fkFresh, baseRoot
			case baseKind != fkNone && refLike(typeOf(pass, e)):
				return fkStore, nil
			}
			return fkNone, nil
		}
		return w.project(e, baseKind), baseRoot
	case *ast.IndexExpr:
		w.eval(x.Index)
		k, root := w.eval(x.X)
		if pk := w.project(e, k); pk != fkNone {
			return pk, root
		}
		// A frozen element read out of a container (a registry map, a
		// cached suite) is published: storing it there published it.
		if w.summary == nil && w.an.isFrozen(typeOf(pass, e)) {
			return fkPub, nil
		}
		return fkNone, nil
	case *ast.SliceExpr:
		w.eval(x.Low)
		w.eval(x.High)
		w.eval(x.Max)
		return w.eval(x.X)
	case *ast.TypeAssertExpr:
		k, root := w.eval(x.X)
		return w.project(e, k), root
	case *ast.BinaryExpr:
		w.eval(x.X)
		w.eval(x.Y)
		return fkNone, nil
	case *ast.FuncLit:
		// The closure body runs under the current state at some point;
		// violations inside it are violations whenever it runs. Writes to
		// currently-fresh values are constructor parallelism and allowed,
		// and the closure holds the guards its caller holds.
		c := w.fork()
		c.walkStmt(x.Body)
		w.joinFreeze(c)
		return fkNone, nil
	case *ast.CallExpr:
		return w.evalCall(x)
	}
	return fkNone, nil
}

// isTypeOrFunc filters non-value identifiers out of frozen classification.
func isTypeOrFunc(obj types.Object) bool {
	switch obj.(type) {
	case *types.TypeName, *types.Func, *types.Builtin, *types.PkgName:
		return true
	}
	return false
}

// project classifies a projection (field/index/deref/assert) of a base
// value.
func (w *shareWalker) project(e ast.Expr, base freezeKind) freezeKind {
	if base == fkNone {
		return fkNone
	}
	tv, ok := w.an.pass.TypesInfo.Types[e]
	switch {
	case !ok:
		return base
	case w.an.isFrozen(tv.Type) && base == fkFresh:
		return fkFresh
	case w.an.isFrozen(tv.Type):
		return fkPub
	case !refLike(tv.Type):
		return fkNone
	case base == fkFresh:
		return fkFresh
	}
	return fkStore
}

// rootedAtPackageLevel reports whether e's access chain bottoms out in a
// package-level variable (and is therefore reachable by every goroutine).
func (w *shareWalker) rootedAtPackageLevel(e ast.Expr) bool {
	root, _ := writeRoot(w.an.pass, e)
	_, ok := root.(*types.Var)
	return ok && isPackageLevel(root)
}

// chainTouchesFrozen reports whether any selection in e's chain is a field
// of a published frozen owner (for &-of-interior classification).
func (w *shareWalker) chainTouchesFrozen(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, ok := w.frozenFieldOwner(x); ok {
				k, _ := w.eval(x.X)
				return k == fkPub || k == fkStore
			}
			e = x.X
		default:
			return false
		}
	}
}

// --- calls -----------------------------------------------------------------

// goCall walks a go statement. Arguments are evaluated at launch, on this
// goroutine. A closure body runs on a new goroutine, which holds none of
// the launcher's guards and, when launched inside a loop, writes captured
// state only at disjoint slots.
func (w *shareWalker) goCall(call *ast.CallExpr) {
	fl, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		w.evalCall(call)
		return
	}
	for _, arg := range call.Args {
		w.eval(arg)
	}
	g := w.fork()
	g.held = map[guardKey]hold{}
	if w.loops > 0 && w.summary == nil {
		g.capture = fl
		if rec := w.an.rec; rec != nil {
			fn := w.an.pass.TypesInfo.Defs[w.fd.Name].(*types.Func)
			rec.loopGo[fn.FullName()] = w.an.pass.Fset.Position(fl.Pos()).Filename
		}
	}
	g.walkStmt(fl.Body)
	w.joinFreeze(g)
}

// syncCall resolves sel to a method of a sync.Mutex or sync.Once and the
// guard it acts on.
func (w *shareWalker) syncCall(sel *ast.SelectorExpr) (string, guardKey, bool) {
	fn, ok := w.an.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", guardKey{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", guardKey{}, false
	}
	if kind := syncTypeName(recv.Type()); kind != "Mutex" && kind != "Once" {
		return "", guardKey{}, false
	}
	key, ok := w.guardKeyOf(sel)
	return fn.Name(), key, ok
}

// guardKeyOf resolves the receiver chain of a sync method call to a
// (root, guard-field) key. `a.mu.Lock()` yields (a, mu); the embedded
// form `suiteCache.Lock()` resolves the promoted Mutex field through the
// method selection's index path; a plain package-level `mu.Lock()` uses
// the variable itself as both root and guard.
func (w *shareWalker) guardKeyOf(sel *ast.SelectorExpr) (guardKey, bool) {
	pass := w.an.pass
	var guard *types.Var
	base := sel.X
	if s, ok := pass.TypesInfo.Selections[sel]; ok && len(s.Index()) > 1 {
		// Promoted method: walk the field prefix to the guard field.
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			str, ok := derefAll(t).Underlying().(*types.Struct)
			if !ok {
				return guardKey{}, false
			}
			guard = str.Field(i)
			t = guard.Type()
		}
	} else {
		switch x := sel.X.(type) {
		case *ast.SelectorExpr:
			guard, _ = pass.TypesInfo.Uses[x.Sel].(*types.Var)
			base = x.X
		case *ast.Ident:
			guard, _ = pass.TypesInfo.Uses[x].(*types.Var)
		}
	}
	root, _ := writeRoot(pass, base)
	if root == nil || guard == nil {
		return guardKey{}, false
	}
	return guardKey{root: root, guard: guard}, true
}

// onceDo walks once.Do(f), the one owner of the sync.Once contract: inside
// f the once's guarded fields may be read and written (f is their
// constructor), and after the call they may only be read — Do's
// happens-before edge orders every later read after the one write.
func (w *shareWalker) onceDo(call *ast.CallExpr, key guardKey) {
	for _, arg := range call.Args {
		fl, ok := arg.(*ast.FuncLit)
		if !ok {
			w.eval(arg)
			continue
		}
		c := w.fork()
		c.held[key] = holdAll
		c.walkStmt(fl.Body)
		w.joinFreeze(c)
	}
	w.held[key] = max(w.held[key], holdRead)
}

func (w *shareWalker) evalCall(call *ast.CallExpr) (freezeKind, types.Object) {
	pass := w.an.pass

	// Type conversions propagate their operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		var k freezeKind
		var root types.Object
		for _, arg := range call.Args {
			if ak, ar := w.eval(arg); ak > k {
				k, root = ak, ar
			}
		}
		return k, root
	}

	// Builtins: new(Frozen) is fresh; append/copy can write frozen storage.
	if name, ok := builtinName(pass, call.Fun); ok {
		return w.evalBuiltin(name, call)
	}

	// Resolve the callee and receiver; sync guard methods move the held
	// set instead.
	var callee *types.Func
	var recvExpr, fun ast.Expr
	switch f := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if method, key, ok := w.syncCall(f); ok {
			w.eval(f.X)
			switch method {
			case "Lock":
				w.held[key] = holdAll
			case "Unlock":
				delete(w.held, key)
			case "Do":
				w.onceDo(call, key)
			}
			return fkNone, nil
		}
		callee, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
		if s, ok := pass.TypesInfo.Selections[f]; ok && s.Kind() == types.MethodVal {
			recvExpr = f.X
		} else {
			w.eval(f)
		}
	default:
		// Evaluated after the arguments: an immediately-invoked closure
		// (including `go func(...){...}(...)`) runs its body after them.
		fun = call.Fun
	}

	known := callee != nil && w.an.decls[callee] != nil

	// Receiver first (summary index -1), then flat arguments.
	if recvExpr != nil {
		k, root := w.eval(recvExpr)
		w.checkCallArg(callee, known, -1, recvExpr, k, root)
	}
	for i, arg := range call.Args {
		k, root := w.eval(arg)
		w.checkCallArg(callee, known, i, arg, k, root)
	}
	w.eval(fun)

	// A call result of frozen type is a finished, published artifact:
	// mutating a constructor's return value is exactly the bug to catch.
	if w.summary == nil && w.an.isFrozen(typeOf(pass, call)) {
		return fkPub, nil
	}
	return fkNone, nil
}

// checkCallArg applies a callee's summary to one frozen-relevant argument.
func (w *shareWalker) checkCallArg(callee *types.Func, known bool, idx int, arg ast.Expr, kind freezeKind, root types.Object) {
	switch {
	case kind == fkNone:
	case !known:
		// Unknown callee (other package, interface, stdlib): reads are the
		// norm for shared artifacts, so passing a published value is fine.
		// A FRESH value handed to an unknown callee may be retained — end
		// its construction window conservatively.
		if kind == fkFresh {
			w.publish(root)
		}
	case kind == fkFresh:
		if w.an.summaryFor(callee, idx).publishes {
			w.publish(root)
		}
	default:
		s := w.an.summaryFor(callee, idx)
		if !s.writes {
			return
		}
		if kind == fkPub {
			w.writeProblem(arg.Pos(), "via "+callee.Name()+": "+s.where,
				"%s passes published frozen %s to %s, which stores to it (%s); frozen shared artifacts are immutable once they escape their constructor",
				w.fd.Name.Name, typeShort(typeOf(w.an.pass, arg)), callee.Name(), s.where)
		} else {
			w.writeProblem(arg.Pos(), "via "+callee.Name()+": "+s.where,
				"%s passes an alias of frozen shared storage to %s, which writes through it (%s)",
				w.fd.Name.Name, callee.Name(), s.where)
		}
	}
}

func typeOf(pass *Pass, e ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func (w *shareWalker) evalBuiltin(name string, call *ast.CallExpr) (freezeKind, types.Object) {
	switch name {
	case "new":
		if w.summary == nil && len(call.Args) == 1 {
			if tv, ok := w.an.pass.TypesInfo.Types[call.Args[0]]; ok && tv.IsType() && w.an.isFrozen(tv.Type) {
				return fkFresh, nil
			}
		}
		return fkNone, nil
	case "append":
		var k freezeKind
		var root types.Object
		for i, arg := range call.Args {
			ak, ar := w.eval(arg)
			if i > 0 {
				continue
			}
			k, root = ak, ar
			if ak == fkStore || ak == fkPub {
				w.writeProblem(arg.Pos(), "append("+exprString(arg)+", ...)",
					"%s appends to frozen shared storage (%s); append may write the shared backing array in place",
					w.fd.Name.Name, exprString(arg))
			}
		}
		return k, root
	case "copy":
		if len(call.Args) == 2 {
			if dk, _ := w.eval(call.Args[0]); dk == fkStore || dk == fkPub {
				w.writeProblem(call.Args[0].Pos(), "copy("+exprString(call.Args[0])+", ...)",
					"%s copies into frozen shared storage (%s); frozen artifacts are immutable once published",
					w.fd.Name.Name, exprString(call.Args[0]))
			}
			w.eval(call.Args[1])
		}
		return fkNone, nil
	}
	for _, arg := range call.Args {
		w.eval(arg)
	}
	return fkNone, nil
}

// writeRoot walks an LHS chain to its root object, reporting whether the
// chain dereferences (index/field/star) on the way.
func writeRoot(pass *Pass, e ast.Expr) (types.Object, bool) {
	deref := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
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

// lhsObject returns the object an identifier defines or, failing that,
// uses.
func lhsObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
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

// isPackageLevel reports whether obj is a package-scope variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
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
