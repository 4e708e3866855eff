package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is policycontract's borrow check, a use-site rule. Victim's
// tags parameter aliases the level's tag row for the set, so Victim may
// name it only as
//
//   - a tags[i] read (not assigned, incremented or addressed);
//   - the operand of len, cap or range;
//   - the source of copy(dst, tags) or append(dst, tags...);
//   - the tags argument of another Victim call, which takes over the
//     borrow (the delegate is checked in its own package).
//
// Every other use is reported where it happens: a write, an alias (a
// local, a field, a package variable, a re-slice, &tags[i]), a call that
// is not delegation, a channel send, a closure or a goroutine. Because
// an alias is flagged where it is made, no alias is ever followed: the
// check keeps no dataflow state, loop fixpoint or helper summary.

// tagUse is one use of Victim's tags parameter: a form the rule accepts,
// or the finding it draws.
type tagUse struct {
	pos  token.Pos
	form string // "index", "len", "cap", "range", "copy", "append" or "delegate"; "" for a finding
	msg  string // the finding, when form is ""
}

// tagUses classifies every use of fd's tags parameter, in source order.
// A closure that captures tags draws one finding, at its first use.
func tagUses(pass *Pass, fd *ast.FuncDecl) []tagUse {
	tags := paramObject(pass, fd, 1)
	if tags == nil {
		return nil // unnamed or blank: Victim cannot name the row
	}
	var uses []tagUse
	var path []ast.Node // fd.Body down to the node being visited
	captured := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		if id, ok := n.(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != tags {
			return true
		}
		for i, anc := range path {
			if fl, ok := anc.(*ast.FuncLit); ok {
				if !captured[fl] {
					captured[fl] = true
					uses = append(uses, tagUse{pos: n.Pos(), msg: escapeMessage(pass, path[:i+1])})
				}
				return true
			}
		}
		uses = append(uses, classifyTagUse(pass, path))
		return true
	})
	return uses
}

// classifyTagUse matches the use of tags at the end of path against the
// accepted forms.
func classifyTagUse(pass *Pass, path []ast.Node) tagUse {
	pos := path[len(path)-1].Pos()
	p := parentIndex(path, len(path)-1)
	child := path[p+1] // tags, or the parentheses around it
	switch x := path[p].(type) {
	case *ast.IndexExpr: // tags is the operand: a []uint64 is never an index or bound
		q := parentIndex(path, p)
		if u, ok := path[q].(*ast.UnaryExpr); ok && u.Op == token.AND {
			return tagUse{pos: pos, msg: escapeMessage(pass, path[:q+1])}
		}
		if isWritten(path[q], path[q+1]) {
			return tagUse{pos: pos, msg: "Victim writes the borrowed tag storage through tags; tags aliases the level's tag store and must not be modified"}
		}
		return tagUse{pos: pos, form: "index"}
	case *ast.SliceExpr:
		return tagUse{pos: pos, msg: escapeMessage(pass, path[:p+1])}
	case *ast.RangeStmt:
		if x.X == child {
			return tagUse{pos: pos, form: "range"}
		}
	case *ast.CallExpr:
		switch name, _ := builtinName(pass, x.Fun); {
		case name == "len" || name == "cap":
			return tagUse{pos: pos, form: name}
		case name == "copy" && len(x.Args) == 2 && x.Args[1] == child:
			return tagUse{pos: pos, form: "copy"}
		case name == "append" && x.Ellipsis.IsValid() && len(x.Args) == 2 && x.Args[1] == child:
			return tagUse{pos: pos, form: "append"}
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && len(x.Args) == 3 && x.Args[1] == child {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && isVictimSig(fn) {
				return tagUse{pos: pos, form: "delegate"}
			}
		}
	}
	return tagUse{pos: pos, msg: escapeMessage(pass, path)}
}

// escapeMessage explains the finding for an alias of the tag row — tags
// itself, a re-slice, &tags[i] or a closure capturing tags — at the end
// of path, by where the alias goes.
func escapeMessage(pass *Pass, path []ast.Node) string {
	p := parentIndex(path, len(path)-1)
	child := path[p+1]
	switch x := path[p].(type) {
	case *ast.AssignStmt:
		for i, rhs := range x.Rhs {
			if rhs == child && len(x.Lhs) == len(x.Rhs) {
				return "Victim stores an alias of the borrowed tag row in " + exprString(x.Lhs[i]) + "; copy the needed data out of tags instead"
			}
		}
	case *ast.CallExpr:
		if _, ok := path[parentIndex(path, p)].(*ast.GoStmt); ok {
			return "Victim hands an alias of the borrowed tag row to a goroutine; the goroutine outlives the call's read-only borrow"
		}
		name, builtin := builtinName(pass, x.Fun)
		switch {
		case name == "append" && x.Args[0] == child:
			return "Victim appends to the borrowed tag row; append may write the level's backing array in place"
		case name == "copy" && x.Args[0] == child:
			return "Victim copies into the borrowed tag row; tags aliases the level's tag store and must not be modified"
		case !builtin && x.Fun != child && !pass.TypesInfo.Types[x.Fun].IsType():
			callee := exprString(x.Fun)
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				callee = sel.Sel.Name
			}
			return "Victim passes the borrowed tag row to " + callee + "; only another Victim may take the borrow, so copy the needed data out of tags instead"
		}
	}
	return "Victim uses the borrowed tag row in a form the borrow check does not accept; read tags[i], take len, cap or range of it, copy or append it out, or pass it to another Victim"
}

// parentIndex returns the index in path of the nearest ancestor of
// path[i] that is not a parenthesis.
func parentIndex(path []ast.Node, i int) int {
	for i--; i > 0; i-- {
		if _, ok := path[i].(*ast.ParenExpr); !ok {
			break
		}
	}
	return i
}

// isWritten reports whether parent assigns to its operand child:
// an assignment's left side, an increment or a range key or value.
func isWritten(parent, child ast.Node) bool {
	switch s := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if lhs == child {
				return true
			}
		}
	case *ast.IncDecStmt:
		return s.X == child
	case *ast.RangeStmt:
		return s.Key == child || s.Value == child
	}
	return false
}
