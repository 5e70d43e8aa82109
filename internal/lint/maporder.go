package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range-over-map loops whose body feeds an output-affecting
// sink. Go randomizes map iteration order per run, so anything
// order-sensitive downstream of such a loop — scheduled events (their
// sequence numbers break ties in the event queue), trace/stats emission,
// printed output, a slice built by append, a float accumulator — destroys
// the bit-identical-output guarantee the differential tests enforce.
//
// The accepted fix is the one the diagnostic suggests: collect the keys,
// sort them, and iterate the sorted slice. A loop that only builds a key
// slice which is sorted later in the same block is recognized and allowed.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

// mapSinkMethods are order-sensitive methods on the simulator's output
// paths; they count as sinks when declared in one of mapSinkPkgs.
var mapSinkMethods = map[string]bool{
	"Schedule": true, "ScheduleAt": true, "ScheduleArg": true,
	"ScheduleCoarse": true, "ScheduleCoarseArg": true,
	"Push": true, "Record": true, "Emit": true,
	"Add": true, "Observe": true,
}

// mapSinkPkgs are the packages (by name) owning the event queue, the trace
// collector and the stats aggregates.
var mapSinkPkgs = map[string]bool{"sim": true, "trace": true, "stats": true}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		walkStmtLists(f, func(list []ast.Stmt) {
			for i, st := range list {
				rs, ok := st.(*ast.RangeStmt)
				if !ok || !isMapRange(pass, rs) {
					continue
				}
				checkMapRange(pass, rs, list[i+1:])
			}
		})
	}
	return nil
}

// walkStmtLists invokes fn on every statement list in n (blocks, case and
// comm clause bodies), so callers see each statement with its in-block
// successors.
func walkStmtLists(n ast.Node, fn func(list []ast.Stmt)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, tail []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := sinkCall(pass, n); ok {
				pass.Reportf(n.Pos(), "maporder",
					"%s inside range over a map: map order is random per run; iterate sorted keys", name)
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, n, tail)
		}
		return true
	})
}

// sinkCall reports whether call is an output-affecting sink and names it.
func sinkCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil {
		// Package-level function: printing is the order-sensitive one.
		if obj.Pkg().Name() == "fmt" && printingFunc(obj.Name()) {
			return "fmt." + obj.Name(), true
		}
		return "", false
	}
	if mapSinkMethods[obj.Name()] && mapSinkPkgs[obj.Pkg().Name()] {
		return obj.Pkg().Name() + "." + recvTypeName(sig) + "." + obj.Name(), true
	}
	return "", false
}

func printingFunc(name string) bool {
	switch name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return true
	}
	return false
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// checkMapRangeAssign flags two order-fixing assignment shapes in a map
// loop body: append into a variable declared outside the loop (unless that
// variable is sorted later in the enclosing block — the canonical
// collect-then-sort idiom), and accumulation into an outer floating-point
// variable, as op-assign (sum += r) or rebinding (sum = sum + r): float
// addition is not associative, so the sum depends on iteration order.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt, tail []ast.Stmt) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			obj := outerVar(pass, rs, as.Lhs[i])
			if obj == nil {
				continue
			}
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
				if !sortedInTail(pass, tail, obj) {
					pass.Reportf(as.Pos(), "maporder",
						"append to %s inside range over a map fixes random iteration order into the slice; sort it afterwards or iterate sorted keys", obj.Name())
				}
			} else if isFloat(obj.Type()) && mentions(pass, rhs, obj) {
				reportMapFloat(pass, as, obj)
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) != 1 {
			return
		}
		if obj := outerVar(pass, rs, as.Lhs[0]); obj != nil && isFloat(obj.Type()) {
			reportMapFloat(pass, as, obj)
		}
	}
}

func reportMapFloat(pass *Pass, as *ast.AssignStmt, obj *types.Var) {
	pass.Reportf(as.Pos(), "mapfloat",
		"floating-point accumulation into %s depends on map iteration order (float addition is not associative); iterate sorted keys", obj.Name())
}

// mentions reports whether expression e uses obj.
func mentions(pass *Pass, e ast.Expr, obj *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// outerVar resolves lhs to a variable declared outside the range statement
// (nil when lhs is not a plain ident or the variable is loop-local).
func outerVar(pass *Pass, rs *ast.RangeStmt, lhs ast.Expr) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	obj, _ := pass.TypesInfo.Uses[id].(*types.Var)
	if obj == nil {
		obj, _ = pass.TypesInfo.Defs[id].(*types.Var)
	}
	if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
		return nil
	}
	return obj
}

// sortedInTail reports whether any statement after the loop (in the same
// block) passes obj to a sort/slices function.
func sortedInTail(pass *Pass, tail []ast.Stmt, obj *types.Var) bool {
	for _, st := range tail {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if name := fn.Pkg().Name(); name != "sort" && name != "slices" {
				return true
			}
			for _, arg := range call.Args {
				found = found || mentions(pass, arg, obj)
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
