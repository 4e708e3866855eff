package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PolicyContract enforces the statically checkable half of the
// cache.Policy contract (the dynamic half lives in cache.NewCheckedPolicy):
//
//   - Victim(set int, tags []uint64, acc ...) int must treat tags as
//     read-only borrowed storage: it aliases the Level's tag row for the
//     set, so a write corrupts simulator state and a retained reference
//     lets later fills mutate policy-held data. The analyzer flags writes
//     through the parameter (including via local aliases) and stores of
//     the parameter into anything that outlives the call.
//   - Every type implementing the Policy method set must consult
//     Geometry.ReservedWays somewhere in its own (or embedded) methods,
//     or visibly delegate victim selection to another policy. A policy
//     that never reads ReservedWays will hand out reserved ways the
//     moment a P-OPT configuration pins Rereference Matrix columns.
//
// Matching is structural (parameter/receiver shapes and the type name
// Geometry), so the analyzer works identically on the real internal/cache
// types and on self-contained test fixtures.
var PolicyContract = &Analyzer{
	Name: "policycontract",
	Doc: "flags Policy.Victim implementations that write to or retain the " +
		"borrowed tag row, and Policy implementations that never consult " +
		"Geometry.ReservedWays",
	Run: runPolicyContract,
}

func runPolicyContract(pass *Pass) error {
	// Collect method declarations grouped by receiver base type name.
	methods := make(map[string][]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if name := recvTypeName(fd.Recv.List[0].Type); name != "" {
				methods[name] = append(methods[name], fd)
			}
		}
	}
	for typeName, decls := range methods {
		var victim, bind *ast.FuncDecl
		for _, fd := range decls {
			switch {
			case fd.Name.Name == "Victim" && isVictimSig(pass, fd):
				victim = fd
			case fd.Name.Name == "Bind" && isBindSig(pass, fd):
				bind = fd
			}
		}
		if victim == nil {
			continue
		}
		checkVictimBody(pass, victim)
		// The ReservedWays obligation only applies to full Policy
		// implementations (Bind+Victim present).
		if bind != nil && !readsReservedWays(pass, methods, typeName, nil) && !delegatesVictim(pass, victim) {
			pass.Reportf(bind.Name.Pos(),
				"policy %s binds a Geometry but no method reads Geometry.ReservedWays; Victim will return reserved ways when a level pins metadata columns",
				typeName)
		}
	}
	return nil
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	default:
		return ""
	}
}

// isVictimSig reports whether fd is func(int, []uint64, T) int.
func isVictimSig(pass *Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 3 || sig.Results().Len() != 1 {
		return false
	}
	if b, ok := sig.Params().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	if b, ok := sig.Results().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Int {
		return false
	}
	return isTagRow(sig.Params().At(1).Type())
}

// isTagRow reports whether t is []uint64, the tag row Victim borrows.
func isTagRow(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	return ok && isTag(sl.Elem())
}

// isTag reports whether t is uint64, one borrowed tag.
func isTag(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// isBindSig reports whether fd is func(Geometry) for a named struct type
// called Geometry.
func isBindSig(pass *Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 1 && isNamedStruct(sig.Params().At(0).Type(), "Geometry")
}

func isNamedStruct(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != name {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// checkVictimBody flags writes through (or stores of) the tags parameter,
// tracking local slice aliases conservatively.
func checkVictimBody(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	param := victimTagsParam(pass, fd)
	if param == nil {
		return // unnamed or blank parameter: nothing can be misused
	}
	aliases := map[types.Object]bool{param: true}
	isAliasRooted := func(e ast.Expr) bool { return aliasRoot(pass, e, aliases) }
	// Alias discovery runs before the write check so ordering inside the
	// body does not matter for detection (a later write through an alias
	// declared earlier is still caught; the reverse cannot compile).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isAliasValue(pass, rhs, aliases) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := lhsObject(pass, id); obj != nil {
					aliases[obj] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				// Rebinding the alias variable itself is harmless.
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := lhsObject(pass, id); obj != nil && aliases[obj] {
						continue
					}
				}
				if isAliasRooted(lhs) {
					pass.Reportf(lhs.Pos(),
						"Victim writes through the tags parameter (%s); tags aliases the level's tag store and must not be modified",
						exprString(lhs))
				}
				if i < len(n.Rhs) && isAliasValue(pass, n.Rhs[i], aliases) && !isLocalTarget(pass, lhs, aliases) {
					pass.Reportf(n.Rhs[i].Pos(),
						"Victim stores the tags parameter in %s; tags is borrowed for the duration of the call and must not be retained",
						exprString(lhs))
				}
			}
		case *ast.IncDecStmt:
			if isAliasRooted(n.X) {
				pass.Reportf(n.X.Pos(),
					"Victim writes through the tags parameter (%s); tags aliases the level's tag store and must not be modified",
					exprString(n.X))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && isAliasRooted(n.X) {
				pass.Reportf(n.Pos(),
					"Victim takes the address of %s inside the borrowed tag row; the pointer outlives the contract's read-only borrow",
					exprString(n.X))
			}
		}
		return true
	})
}

// victimTagsParam returns the types.Object of Victim's second parameter.
func victimTagsParam(pass *Pass, fd *ast.FuncDecl) types.Object {
	count := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if count == 1 {
				if name.Name == "_" {
					return nil
				}
				return pass.TypesInfo.Defs[name]
			}
			count++
		}
		if len(field.Names) == 0 {
			count++
		}
	}
	return nil
}

// aliasRoot reports whether e is an index/slice/field/paren chain rooted
// at a tracked alias (i.e. writing to it writes the borrowed storage).
func aliasRoot(pass *Pass, e ast.Expr, aliases map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = pass.TypesInfo.Defs[x]
			}
			return obj != nil && aliases[obj]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isAliasValue reports whether evaluating e yields a slice aliasing the
// borrowed storage: the alias itself or a re-slice of it.
func isAliasValue(pass *Pass, e ast.Expr, aliases map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[x]
		return obj != nil && aliases[obj]
	case *ast.SliceExpr:
		return isAliasValue(pass, x.X, aliases)
	case *ast.ParenExpr:
		return isAliasValue(pass, x.X, aliases)
	default:
		return false
	}
}

// isLocalTarget reports whether lhs is a plain local variable (storing an
// alias there only extends tracking, it does not escape the call).
func isLocalTarget(pass *Pass, lhs ast.Expr, aliases map[types.Object]bool) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	obj := lhsObject(pass, id)
	if obj == nil {
		return id.Name == "_"
	}
	if v, ok := obj.(*types.Var); ok {
		// Package-level variables escape; function-scoped ones do not.
		return v.Parent() != v.Pkg().Scope()
	}
	return false
}

func lhsObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// readsReservedWays reports whether any method of typeName — or of a
// same-package named type it embeds — selects a field called
// ReservedWays. seen guards against embedding cycles.
func readsReservedWays(pass *Pass, methods map[string][]*ast.FuncDecl, typeName string, seen map[string]bool) bool {
	if seen == nil {
		seen = make(map[string]bool)
	}
	if seen[typeName] {
		return false
	}
	seen[typeName] = true
	for _, fd := range methods[typeName] {
		found := false
		ast.Inspect(fd, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "ReservedWays" {
				return true
			}
			if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
				found = true
				return false
			}
			// Unqualified package-scope selection (x.ReservedWays where x
			// is a Geometry value reached without a Selection entry) does
			// not occur for field reads; methods named ReservedWays are
			// deliberately not counted.
			return true
		})
		if found {
			return true
		}
	}
	// Recurse into embedded same-package named types (e.g. rripBase).
	for name := range embeddedTypeNames(pass, typeName) {
		if readsReservedWays(pass, methods, name, seen) {
			return true
		}
	}
	return false
}

// embeddedTypeNames returns names of same-package named struct types
// embedded in typeName.
func embeddedTypeNames(pass *Pass, typeName string) map[string]bool {
	out := make(map[string]bool)
	obj := pass.Pkg.Scope().Lookup(typeName)
	if obj == nil {
		return out
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return out
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() {
			continue
		}
		t := f.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Pkg() == pass.Pkg {
			out[n.Obj().Name()] = true
		}
	}
	return out
}

// delegatesVictim reports whether Victim's body calls another Victim
// method — delegation moves the ReservedWays obligation to the delegate.
func delegatesVictim(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Body == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Victim" {
			return true
		}
		if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			found = true
			return false
		}
		return true
	})
	return found
}
