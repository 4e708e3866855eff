package lint

import (
	"go/ast"
	"go/types"
)

// PolicyContract enforces the statically checkable half of the
// cache.Policy contract (the dynamic half lives in cache.NewCheckedPolicy).
// It finds every Victim method by its shape, func(int, []uint64, T) int,
// and runs two checks:
//
//   - The borrow check. Victim's tags parameter aliases the Level's tag
//     row for the set, so a write corrupts simulator state and a retained
//     reference lets later fills mutate policy-held data. A use-site rule
//     (borrow.go) lets Victim name tags only as a tags[i] read, the
//     operand of len, cap or range, the source of copy or append, or the
//     tags argument of another Victim, and flags every other use where
//     it is made, so no alias is ever followed.
//   - The ReservedWays obligation. Every type with both Bind(Geometry) and
//     Victim must consult Geometry.ReservedWays somewhere in its own (or
//     embedded) methods, or visibly delegate victim selection to another
//     policy. A policy that never reads ReservedWays will hand out
//     reserved ways the moment a P-OPT configuration pins Rereference
//     Matrix columns.
//
// Matching is structural (parameter/receiver shapes and the type name
// Geometry), so the analyzer works identically on the real internal/cache
// types and on self-contained test fixtures.
var PolicyContract = &Analyzer{
	Name: "policycontract",
	Doc: "flags Policy.Victim implementations that name the borrowed tag " +
		"row other than as a tags[i] read, len/cap/range, the source of " +
		"copy or append, or the tags argument of another Victim (writes, " +
		"aliases, helper calls, closures, goroutines and sends are flagged " +
		"where they are made), and Policy implementations that never " +
		"consult Geometry.ReservedWays",
	Run: runPolicyContract,
}

func runPolicyContract(pass *Pass) error {
	// One scan groups methods by receiver base type for the ReservedWays
	// obligation and finds every Victim for both checks.
	methods := make(map[string][]*ast.FuncDecl)
	binds := make(map[string]*ast.FuncDecl)
	var victims []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			name := recvTypeName(fd.Recv.List[0].Type)
			if !ok || name == "" {
				continue
			}
			methods[name] = append(methods[name], fd)
			switch {
			case isVictimSig(fn):
				victims = append(victims, fd)
			case fn.Name() == "Bind" && isBindSig(fn):
				binds[name] = fd
			}
		}
	}
	for _, victim := range victims {
		for _, u := range tagUses(pass, victim) {
			if u.form == "" {
				pass.Reportf(u.pos, "%s", u.msg)
			}
		}
		// The ReservedWays obligation only applies to full Policy
		// implementations (Bind+Victim present).
		typeName := recvTypeName(victim.Recv.List[0].Type)
		if bind := binds[typeName]; bind != nil && !readsReservedWays(pass, methods, typeName, nil) && !delegatesVictim(pass, victim) {
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

// isVictimSig reports whether fn is a Policy Victim method: a method
// named Victim of shape func(int, []uint64, T) int. Both checks find
// Victim through it, and the borrow check also uses it to recognise
// delegation to another policy's Victim.
func isVictimSig(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if fn.Name() != "Victim" || sig.Recv() == nil || sig.Params().Len() != 3 || sig.Results().Len() != 1 {
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
	if !ok {
		return false
	}
	b, ok := sl.Elem().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// isBindSig reports whether fn is func(Geometry) for a named struct type
// called Geometry.
func isBindSig(fn *types.Func) bool {
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
// method: delegation moves the ReservedWays obligation to the delegate.
func delegatesVictim(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				found = ok && isVictimSig(fn)
			}
		}
		return !found
	})
	return found
}
