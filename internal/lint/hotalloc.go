package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc reports allocation sites in functions annotated with
//
//	//lint:hotpath
//
// in their doc comment. These are the per-packet functions the runtime
// AllocsPerRun gates hold at zero allocations (forwarding, the Solar ack
// path, the 4 KiB write path); the analyzer catches a regression at
// review time instead of at the gate, and names the exact expression.
//
// Reported shapes: slice/map/chan composite literals and &T{} (heap
// escape candidates), new/make, append (may grow the backing array —
// reslice a pooled buffer instead), string<->[]byte/[]rune conversions,
// string concatenation, closures that capture variables, and fmt calls
// (interface boxing of every argument). Plain struct value literals,
// reslicing, arithmetic and method calls stay silent.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Run:  runHotAlloc,
}

const hotpathMarker = "//lint:hotpath"

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathMarker) {
			rest := strings.TrimPrefix(c.Text, hotpathMarker)
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return true
		case *ast.FuncLit:
			if capt := captures(pass, n); capt != "" {
				pass.Reportf(n.Pos(), "hotalloc",
					"closure captures %s: allocates per call on a hot path", capt)
			}

		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "hotalloc", "slice literal allocates on a hot path; reuse a pooled buffer")
			case *types.Map:
				pass.Reportf(n.Pos(), "hotalloc", "map literal allocates on a hot path")
			}

		case *ast.UnaryExpr:
			// &T{} — the address-of forces the literal onto the heap
			// whenever it escapes; on a hot path, assume it does.
			if cl, ok := unparen(n.X).(*ast.CompositeLit); ok && n.Op.String() == "&" {
				if _, isStruct := pass.TypesInfo.TypeOf(cl).Underlying().(*types.Struct); isStruct {
					pass.Reportf(n.Pos(), "hotalloc", "&composite literal may escape to the heap on a hot path; use a pooled object")
				}
			}

		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isNonConstString(pass, n) {
				pass.Reportf(n.Pos(), "hotalloc", "string concatenation allocates on a hot path")
			}

		case *ast.CallExpr:
			checkHotCall(pass, n)
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	// Conversions: string(b), []byte(s), []rune(s) copy their operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if pass.TypesInfo.Types[call.Args[0]].Value != nil {
			return // constant-folded
		}
		to := tv.Type.Underlying()
		from := pass.TypesInfo.TypeOf(call.Args[0])
		if from == nil {
			return
		}
		if isString(to) && isByteOrRuneSlice(from.Underlying()) {
			pass.Reportf(call.Pos(), "hotalloc", "string(...) conversion copies the bytes on a hot path")
		}
		if isByteOrRuneSlice(to) && isString(from.Underlying()) {
			pass.Reportf(call.Pos(), "hotalloc", "[]byte/[]rune(...) conversion copies the string on a hot path")
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch fun.Name {
			case "append":
				pass.Reportf(call.Pos(), "hotalloc",
					"append may grow the backing array on a hot path; reslice a preallocated buffer")
			case "new":
				pass.Reportf(call.Pos(), "hotalloc", "new(...) allocates on a hot path; use a pool")
			case "make":
				pass.Reportf(call.Pos(), "hotalloc", "make(...) allocates on a hot path; use a pool")
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "hotalloc",
				"fmt.%s boxes every argument into an interface on a hot path", fn.Name())
		}
	}
}

// captures names one variable a func literal closes over (empty when the
// literal is self-contained and therefore a static, allocation-free func
// value).
func captures(pass *Pass, fl *ast.FuncLit) string {
	var name string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures; anything declared
		// outside the literal but inside some function is.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			name = v.Name()
		}
		return true
	})
	return name
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isNonConstString(pass *Pass, b *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[b]
	if !ok || tv.Value != nil { // constant concatenation folds at compile time
		return false
	}
	return tv.Type != nil && isString(tv.Type.Underlying())
}
