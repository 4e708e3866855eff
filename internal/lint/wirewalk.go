package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the extraction engine of the wireformat analyzer. A codec
// is a set of functions annotated in their doc comments with
//
//	//popt:codec <stream> enc
//	//popt:codec <stream> dec
//
// The engine walks every annotated function once and reduces each
// opcode's wire layout to a canonical sequence of primitive ops:
//
//	op       an opcode byte append (encoders only; implicit in decoders)
//	pc       the inline-or-escaped PC nibble idiom (see below)
//	uvarint  a LEB128 varint   (appendUvarint / uvarint / uvarintChecked)
//	varint   a zigzag varint   (appendVarint / varint / varintChecked)
//
// It models exactly the idioms the trace codecs use, and reports any
// other control flow instead of guessing at it:
//
//   - An appended opcode byte is an opcode constant, or a local assigned
//     from one (`op := lopAccessR` ... `op = lopAccessW`), so one encoder
//     can emit several opcodes and each is attributed its own payload.
//   - Every other `if` forks the walk. Paths that end in a panic (direct,
//     or through a same-package panicking helper such as badOp) or by
//     returning a non-nil error are decode failure paths, not wire
//     layouts, and are discarded.
//   - A decoder's opcode dispatch is a `switch` whose case expressions
//     are all constants of one iota block; each case clause is one arm.
//
// Two idioms fold into single ops so both codec sides canonicalize
// identically. A branch whose condition mentions the constant `pcEscape`
// is the PC nibble idiom (inline PC in the opcode's high nibble, or an
// escape marker followed by a uvarint PC) and becomes one `pc` op; on the
// encoder side the same fold applies to `op|...<<4` appends. A branch
// whose condition mentions the literal 0x80 is the one-byte varint fast
// path and becomes one `varint` op.

// wire op kinds.
const (
	wireOp      = "op"
	wirePC      = "pc"
	wireUvarint = "uvarint"
	wireVarint  = "varint"
)

// pcEscapeName is the constant name that identifies the PC nibble idiom;
// pcModeInline/pcModeEscape classify an encoder's opcode-byte append.
const pcEscapeName = "pcEscape"

const (
	pcModeNone = iota
	pcModeInline
	pcModeEscape
)

// wireMaxPaths caps the fork fan-out of one function walk; real codecs
// have a handful of independent branches, so hitting the cap means the
// function is too tangled to certify and is reported as such.
const wireMaxPaths = 64

// codecFn is one annotated codec function.
type codecFn struct {
	decl   *ast.FuncDecl
	stream string
	enc    bool
}

func (f *codecFn) name() string { return f.decl.Name.Name }

// parseCodecFuncs collects //popt:codec annotations from function doc
// comments, reporting malformed ones.
func parseCodecFuncs(pass *Pass) []*codecFn {
	var fns []*codecFn
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil || fn.Body == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//popt:codec") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "//popt:codec"))
				if len(fields) != 2 || (fields[1] != "enc" && fields[1] != "dec") {
					pass.Reportf(c.Pos(), "malformed codec annotation %q; want //popt:codec <stream> enc|dec", text)
					continue
				}
				fns = append(fns, &codecFn{decl: fn, stream: fields[0], enc: fields[1] == "enc"})
			}
		}
	}
	return fns
}

// opBlock is one opcode const block: a block opening with iota
// (`opX byte = iota + 1` followed by bare names). Every constant in it
// is an opcode, so the block is the declared opcode set; masks and
// markers (opMask, pcEscape) live in blocks of their own.
type opBlock struct {
	universe []string // opcode names, declaration order
	values   map[string]int64
}

// collectOpBlocks finds every const block opening with iota and maps
// each member constant object to its block.
func collectOpBlocks(pass *Pass) map[types.Object]*opBlock {
	out := make(map[types.Object]*opBlock)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || len(gd.Specs) == 0 {
				continue
			}
			if first := gd.Specs[0].(*ast.ValueSpec); len(first.Values) == 0 || !mentionsIdent(first.Values[0], "iota") {
				continue
			}
			block := &opBlock{values: make(map[string]int64)}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					obj := pass.TypesInfo.Defs[name]
					if v, ok := intConst(obj); ok {
						out[obj] = block
						block.universe = append(block.universe, name.Name)
						block.values[name.Name] = v
					}
				}
			}
		}
	}
	return out
}

// intConst returns the value of an integer constant object.
func intConst(obj types.Object) (int64, bool) {
	cst, ok := obj.(*types.Const)
	if !ok {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(cst.Val()))
}

// opVal is an opcode's value and constant name.
type opVal struct {
	v    int64
	name string
}

// wireTok is one primitive op observed on a walk path.
type wireTok struct {
	kind   string
	op     opVal // wireOp only
	pcMode int   // wireOp only
	pos    token.Pos
}

// wireEnv is the state of one walk path.
type wireEnv struct {
	vars map[string]opVal // locals assigned from opcode constants
	toks []wireTok
	done bool // hit a return: stop consuming statements
	dead bool // ended in panic or error return: not a wire layout
}

func newWireEnv() *wireEnv { return &wireEnv{vars: make(map[string]opVal)} }

func (e *wireEnv) clone() *wireEnv {
	c := newWireEnv()
	c.toks = append([]wireTok(nil), e.toks...)
	for k, v := range e.vars {
		c.vars[k] = v
	}
	return c
}

func (e *wireEnv) emit(t wireTok) { e.toks = append(e.toks, t) }

// wireWalker walks annotated function bodies, reporting extraction
// problems through its pass.
type wireWalker struct {
	pass      *Pass
	blocks    map[types.Object]*opBlock
	funcDecls map[types.Object]*ast.FuncDecl
	capped    bool
}

func newWireWalker(pass *Pass) *wireWalker {
	w := &wireWalker{
		pass:      pass,
		blocks:    collectOpBlocks(pass),
		funcDecls: make(map[types.Object]*ast.FuncDecl),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				w.funcDecls[pass.TypesInfo.Defs[fn.Name]] = fn
			}
		}
	}
	return w
}

// walkBody runs every statement over the live path set.
func (w *wireWalker) walkBody(stmts []ast.Stmt, envs []*wireEnv) []*wireEnv {
	for _, s := range stmts {
		var next []*wireEnv
		for _, e := range envs {
			if e.done {
				next = append(next, e)
				continue
			}
			next = append(next, w.walkStmt(s, e)...)
		}
		if len(next) > wireMaxPaths {
			if !w.capped {
				w.capped = true
				w.pass.Reportf(s.Pos(), "codec walk exceeds %d paths; simplify the function or split the codec", wireMaxPaths)
			}
			next = next[:wireMaxPaths]
		}
		envs = next
	}
	return envs
}

func (w *wireWalker) walkStmt(s ast.Stmt, env *wireEnv) []*wireEnv {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkBody(s.List, []*wireEnv{env})

	case *ast.IfStmt:
		envs := []*wireEnv{env}
		if s.Init != nil {
			envs = w.walkBody([]ast.Stmt{s.Init}, envs)
		}
		var out []*wireEnv
		for _, e := range envs {
			switch {
			case mentionsIdent(s.Cond, pcEscapeName):
				// PC nibble idiom: one branch reads the inline nibble, the
				// other the escaped uvarint. Fold to a single pc op.
				e.emit(wireTok{kind: wirePC, pos: s.Pos()})
				out = append(out, e)
			case mentionsVarintBoundary(s.Cond):
				// One-byte varint fast path: both branches decode the same
				// zigzag varint.
				e.emit(wireTok{kind: wireVarint, pos: s.Pos()})
				out = append(out, e)
			default:
				out = append(out, w.walkBody(s.Body.List, []*wireEnv{e.clone()})...)
				if s.Else != nil {
					out = append(out, w.walkBody([]ast.Stmt{s.Else}, []*wireEnv{e})...)
				} else {
					out = append(out, e)
				}
			}
		}
		return out

	case *ast.ReturnStmt:
		w.collectCalls(s, env)
		env.done = true
		if w.isErrorReturn(s) {
			env.dead = true
		}
		return []*wireEnv{env}

	case *ast.AssignStmt:
		w.collectCalls(s, env)
		w.trackAssign(s, env)
		return []*wireEnv{env}

	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BranchStmt:
		w.pass.Reportf(s.Pos(), "codec walk does not model this statement; keep codec functions to straight-line code, if/else and one opcode dispatch switch")
		env.done, env.dead = true, true
		return []*wireEnv{env}

	default:
		w.collectCalls(s, env)
		return []*wireEnv{env}
	}
}

// collectCalls scans one non-control statement for codec primitives in
// evaluation order, emitting their ops into env.
func (w *wireWalker) collectCalls(n ast.Node, env *wireEnv) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || callee(call) == nil {
			return true
		}
		switch callee(call).Name {
		case "append":
			for _, arg := range call.Args[1:] {
				w.opTokenFromExpr(arg, env)
			}
		case "appendUvarint", "uvarint", "uvarintChecked":
			env.emit(wireTok{kind: wireUvarint, pos: call.Pos()})
		case "appendVarint", "varint", "varintChecked":
			env.emit(wireTok{kind: wireVarint, pos: call.Pos()})
		default:
			if !w.callPanics(call) {
				return true
			}
			env.done, env.dead = true, true
		}
		return false
	})
}

// opTokenFromExpr classifies one buffer-append argument as an opcode
// byte, with or without the PC nibble idiom: in `op | <nibble>` the left
// side is the opcode and the right side the PC nibble, an escape marker
// if it mentions pcEscape.
func (w *wireWalker) opTokenFromExpr(arg ast.Expr, env *wireEnv) {
	expr, mode := ast.Unparen(arg), pcModeNone
	if be, ok := expr.(*ast.BinaryExpr); ok && be.Op == token.OR {
		expr, mode = be.X, pcModeInline
		if mentionsIdent(be.Y, pcEscapeName) {
			mode = pcModeEscape
		}
	}
	v, ok := w.opValue(expr, env)
	if !ok {
		w.pass.Reportf(arg.Pos(), "cannot determine the opcode value of this buffer append; codec appends must use opcode constants or locals assigned from them")
		return
	}
	env.emit(wireTok{kind: wireOp, op: v, pcMode: mode, pos: arg.Pos()})
}

// opValue evaluates an opcode expression: an opcode constant, or a local
// the path assigned from one.
func (w *wireWalker) opValue(expr ast.Expr, env *wireEnv) (opVal, bool) {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return opVal{}, false
	}
	if block := w.blocks[w.pass.TypesInfo.Uses[id]]; block != nil {
		return opVal{v: block.values[id.Name], name: id.Name}, true
	}
	v, ok := env.vars[id.Name]
	return v, ok
}

// trackAssign keeps opcode locals current: a plain assignment from an
// opcode value tracks the target, any other assignment forgets it.
func (w *wireWalker) trackAssign(s *ast.AssignStmt, env *wireEnv) {
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		delete(env.vars, id.Name)
		if len(s.Lhs) == len(s.Rhs) && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) {
			if v, ok := w.opValue(s.Rhs[i], env); ok {
				env.vars[id.Name] = v
			}
		}
	}
}

// isErrorReturn reports whether the return carries a non-nil error value
// — a decode failure path, not a wire layout.
func (w *wireWalker) isErrorReturn(ret *ast.ReturnStmt) bool {
	errType := types.Universe.Lookup("error").Type()
	for _, r := range ret.Results {
		if types.Identical(w.pass.TypesInfo.TypeOf(r), errType) {
			return true
		}
	}
	return false
}

// callPanics reports whether the call panics: the panic builtin, or a
// same-package function whose body (one level deep) calls it — the
// badOp/badEOF out-of-line pattern that keeps hot loops escape-free.
func (w *wireWalker) callPanics(call *ast.CallExpr) bool {
	id := callee(call)
	if id == nil {
		return false
	}
	if id.Name == "panic" {
		return true
	}
	decl, ok := w.funcDecls[w.pass.TypesInfo.Uses[id]]
	if !ok {
		return false
	}
	return mentions(decl.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && callee(c) != nil && callee(c).Name == "panic"
	})
}

// callee returns the name a call goes through: f in f(x) and in v.f(x).
func callee(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// mentions reports whether any node under n satisfies match.
func mentions(n ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		found = found || match(n)
		return !found
	})
	return found
}

func mentionsIdent(n ast.Node, name string) bool {
	return mentions(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && id.Name == name
	})
}

// mentionsVarintBoundary reports whether the condition compares against
// the LEB128 continuation boundary (0x80) — the one-byte varint fast path.
func mentionsVarintBoundary(cond ast.Expr) bool {
	return mentions(cond, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		return ok && lit.Value == "0x80"
	})
}

// wireArm is one opcode's canonical payload sequence on one codec side.
type wireArm struct {
	op   int64
	name string
	seq  []string
	pos  token.Pos
	fn   *codecFn
}

func seqString(seq []string) string {
	if len(seq) == 0 {
		return "(empty)"
	}
	return strings.Join(seq, " ")
}

// decCodec is one decoder function's extracted dispatch.
type decCodec struct {
	fn       *codecFn
	arms     map[int64]*wireArm
	switches []*dispatchSwitch
}

// dispatchSwitch is an opcode dispatch switch inside a decoder.
type dispatchSwitch struct {
	sw       *ast.SwitchStmt
	block    *opBlock
	def      *ast.CaseClause // nil when absent
	caseVals map[int64]bool
}

// streamCodec is everything extracted for one annotated stream.
type streamCodec struct {
	encArms map[int64]*wireArm
	encFns  []*codecFn
	decs    []*decCodec
}

// wireInfo is the extraction result for one package.
type wireInfo struct {
	streams map[string]*streamCodec
	names   []string // sorted stream names
}

// extractWire walks every annotated function once and builds the
// per-stream codec summaries all three wireformat checks read.
func extractWire(w *wireWalker, fns []*codecFn) *wireInfo {
	info := &wireInfo{streams: make(map[string]*streamCodec)}
	for _, fn := range fns {
		st := info.streams[fn.stream]
		if st == nil {
			st = &streamCodec{encArms: make(map[int64]*wireArm)}
			info.streams[fn.stream] = st
			info.names = append(info.names, fn.stream)
		}
		if fn.enc {
			st.encFns = append(st.encFns, fn)
			extractEnc(w, fn, st)
		} else {
			st.decs = append(st.decs, extractDec(w, fn))
		}
	}
	sort.Strings(info.names)
	return info
}

// extractEnc walks one encoder function and folds its paths into the
// stream's per-opcode arm map.
func extractEnc(w *wireWalker, fn *codecFn, st *streamCodec) {
	for _, e := range w.walkBody(fn.decl.Body.List, []*wireEnv{newWireEnv()}) {
		if e.dead {
			continue
		}
		arms, ok := splitEncArms(w, fn, e.toks)
		if !ok {
			continue
		}
		for _, arm := range arms {
			prev, seen := st.encArms[arm.op]
			if !seen {
				st.encArms[arm.op] = arm
				continue
			}
			if seqString(prev.seq) != seqString(arm.seq) {
				w.pass.Reportf(arm.pos, "opcode %s is encoded as [%s] here but as [%s] in %s; one opcode must have one payload layout",
					arm.name, seqString(arm.seq), seqString(prev.seq), prev.fn.name())
			}
		}
	}
}

// splitEncArms slices one path's op list into per-opcode arms: each op
// byte starts an arm; pc-mode op bytes canonicalize into a leading pc op
// (the escape form consumes its trailing uvarint PC).
func splitEncArms(w *wireWalker, fn *codecFn, toks []wireTok) ([]*wireArm, bool) {
	var arms []*wireArm
	var cur *wireArm
	consumePC := false
	for _, t := range toks {
		if t.kind == wireOp {
			cur = &wireArm{op: t.op.v, name: t.op.name, pos: t.pos, fn: fn}
			arms = append(arms, cur)
			if t.pcMode != pcModeNone {
				cur.seq = append(cur.seq, wirePC)
			}
			consumePC = t.pcMode == pcModeEscape
			continue
		}
		if cur == nil {
			w.pass.Reportf(t.pos, "codec %s emits a %s payload before any opcode byte", fn.name(), t.kind)
			return nil, false
		}
		if consumePC {
			if t.kind != wireUvarint {
				w.pass.Reportf(t.pos, "escaped-PC opcode byte must be followed by a uvarint PC, found %s", t.kind)
				return nil, false
			}
			consumePC = false
			continue
		}
		cur.seq = append(cur.seq, t.kind)
	}
	if consumePC {
		w.pass.Reportf(toks[len(toks)-1].pos, "escaped-PC opcode byte is not followed by its uvarint PC")
		return nil, false
	}
	return arms, true
}

// extractDec finds the decoder's opcode dispatch switches and walks each
// case clause once; every opcode the clause lists gets its layout.
func extractDec(w *wireWalker, fn *codecFn) *decCodec {
	dec := &decCodec{fn: fn, arms: make(map[int64]*wireArm)}
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		ds := classifyDispatch(w, sw)
		if ds == nil {
			return true
		}
		dec.switches = append(dec.switches, ds)
		for _, cc := range sw.Body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				continue // the default clause is checkDispatch's
			}
			var seqs [][]string
			for _, e := range w.walkBody(clause.Body, []*wireEnv{newWireEnv()}) {
				if e.dead {
					continue
				}
				seq := make([]string, 0, len(e.toks))
				for _, t := range e.toks {
					seq = append(seq, t.kind)
				}
				seqs = append(seqs, seq)
			}
			for _, caseExpr := range clause.List {
				name := caseExpr.(*ast.Ident).Name
				v := ds.block.values[name]
				for _, seq := range seqs {
					prev, seen := dec.arms[v]
					if !seen {
						dec.arms[v] = &wireArm{op: v, name: name, seq: seq, pos: clause.Pos(), fn: fn}
						continue
					}
					if seqString(prev.seq) != seqString(seq) {
						w.pass.Reportf(clause.Pos(), "decoder arm for opcode %s in %s is not structurally constant: decodes [%s] on one path and [%s] on another",
							name, fn.name(), seqString(prev.seq), seqString(seq))
					}
				}
			}
		}
		return false // nested switches are not dispatches
	})
	return dec
}

// classifyDispatch recognizes an opcode dispatch switch: at least one
// case, where every case expression is a constant from one opcode const
// block.
func classifyDispatch(w *wireWalker, sw *ast.SwitchStmt) *dispatchSwitch {
	ds := &dispatchSwitch{sw: sw, caseVals: make(map[int64]bool)}
	for _, cc := range sw.Body.List {
		clause := cc.(*ast.CaseClause)
		if clause.List == nil {
			ds.def = clause
			continue
		}
		for _, e := range clause.List {
			id, ok := e.(*ast.Ident)
			if !ok {
				return nil
			}
			block := w.blocks[w.pass.TypesInfo.Uses[id]]
			if block == nil || (ds.block != nil && ds.block != block) {
				return nil
			}
			ds.block = block
			ds.caseVals[block.values[id.Name]] = true
		}
	}
	if ds.block == nil {
		return nil
	}
	return ds
}
