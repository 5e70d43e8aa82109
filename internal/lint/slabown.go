package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SlabOwn enforces the pool ownership discipline from DESIGN.md ("Payload
// ownership"): every reference obtained from PacketPool.Get / GetBuf /
// GetSlab / WrapSlab / Slab.Retain must be given up exactly once —
// released back to the pool (Release / PutBuf) or handed to another
// partition's inbox (Handoff) — and never touched afterwards.
//
// The analysis is intra-procedural and deliberately forgiving: passing a
// tracked value to another function, storing it anywhere, returning it or
// capturing it in a closure transfers ownership and ends tracking (the
// run-time leak gate still covers those flows). What remains is exactly
// the set of shapes that bit us in PR 3 and that no test can prove absent:
//
//   - a return (or scope exit, or loop iteration end) reached while a
//     locally-acquired reference is still held — a leak on that path;
//   - any use of a reference after its Release — including Retain-after-
//     Release (a retransmit sharing an already-released frag) and double
//     Release (the replica fan-out releasing one reference twice);
//   - the cross-partition analogues: use after a Handoff, and a Handoff
//     combined with any second Handoff or Release of the same reference
//     (the receiving partition owns it the moment Handoff returns).
var SlabOwn = &Analyzer{
	Name: "slabown",
	Run:  runSlabOwn,
}

// ownState is the per-variable tracking state.
type ownState struct {
	status     int // stLive, stReleased, stDone
	kind       string
	relVerb    string // "Release" or "Handoff": how the reference was given up
	acquiredAt token.Pos
	releasedAt token.Pos
}

const (
	stLive = iota // reference held, release still owed
	stReleased
	stDone // escaped / satisfied / already reported — stop tracking
)

type stateMap map[*types.Var]ownState

func cloneState(st stateMap) stateMap {
	c := make(stateMap, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

type slabTracker struct {
	pass *Pass
}

func runSlabOwn(pass *Pass) error {
	t := &slabTracker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			t.walkStmt(fd.Body, stateMap{})
		}
	}
	return nil
}

func (t *slabTracker) line(pos token.Pos) int { return t.pass.Fset.Position(pos).Line }

// acquireKind classifies a call that hands out a pool reference.
// Matching is by receiver type name, not import path, so any package
// exposing the PacketPool/Slab ownership protocol — including test
// fixtures — is checked the same way.
func (t *slabTracker) acquireKind(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := t.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	switch recvTypeName(sig) {
	case "PacketPool":
		switch fn.Name() {
		case "Get":
			return "packet", true
		case "GetBuf":
			return "buffer", true
		case "GetSlab", "WrapSlab":
			return "slab", true
		}
	case "Slab":
		if fn.Name() == "Retain" {
			return "slab reference", true
		}
	}
	return "", false
}

// releaseTarget resolves a statement-level call that gives a reference
// up: v.Release(), pool.PutBuf(v), or inbox.Handoff(v, ...) — the
// cross-partition transfer, matched by method name so the real
// crossInbox and test fixtures are checked alike. Returns the tracked
// variable and the verb used in diagnostics ("Release" or "Handoff"), or
// ok=false when the call gives up no plain tracked local.
func (t *slabTracker) releaseTarget(call *ast.CallExpr, st stateMap) (*types.Var, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn, ok := t.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, "", false
	}
	switch fn.Name() {
	case "Release":
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return nil, "", false
		}
		if v, ok := t.pass.TypesInfo.Uses[id].(*types.Var); ok {
			if _, tracked := st[v]; tracked {
				return v, "Release", true
			}
		}
	case "PutBuf":
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil || recvTypeName(sig) != "PacketPool" {
			return nil, "", false
		}
		if len(call.Args) != 1 {
			return nil, "", false
		}
		if v, ok := t.trackedArg(call.Args[0], st); ok {
			return v, "Release", true
		}
	case "Handoff":
		// Ownership rides in the first argument; the rest (delivery time,
		// source partition, ingress port) carry no references.
		if len(call.Args) == 0 {
			return nil, "", false
		}
		if v, ok := t.trackedArg(call.Args[0], st); ok {
			return v, "Handoff", true
		}
	}
	return nil, "", false
}

// trackedArg resolves an argument expression to a tracked local, if it
// is a plain identifier for one.
func (t *slabTracker) trackedArg(arg ast.Expr, st stateMap) (*types.Var, bool) {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if v, ok := t.pass.TypesInfo.Uses[id].(*types.Var); ok {
		if _, tracked := st[v]; tracked {
			return v, true
		}
	}
	return nil, false
}

// useIdent records one appearance of an identifier. An access (v.field,
// v.method()) keeps tracking; any other appearance — argument, operand,
// return value, &v, alias — escapes the reference and ends tracking.
// Either way, touching a released reference is reported.
func (t *slabTracker) useIdent(id *ast.Ident, st stateMap, escaping bool) {
	v, ok := t.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	s, tracked := st[v]
	if !tracked {
		return
	}
	switch s.status {
	case stReleased:
		t.pass.Reportf(id.Pos(), "slabown",
			"use of %s after its %s on line %d", v.Name(), s.relVerb, t.line(s.releasedAt))
		s.status = stDone
		st[v] = s
	case stLive:
		if escaping {
			s.status = stDone
			st[v] = s
		}
	}
}

// scanExpr walks an expression recording uses and escapes.
func (t *slabTracker) scanExpr(e ast.Expr, st stateMap) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		t.useIdent(e, st, true)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			t.useIdent(id, st, false)
		} else {
			t.scanExpr(e.X, st)
		}
	case *ast.CallExpr:
		t.scanExpr(e.Fun, st)
		for _, a := range e.Args {
			t.scanExpr(a, st)
		}
	case *ast.ParenExpr:
		t.scanExpr(e.X, st)
	case *ast.UnaryExpr:
		t.scanExpr(e.X, st)
	case *ast.StarExpr:
		t.scanExpr(e.X, st)
	case *ast.BinaryExpr:
		t.scanExpr(e.X, st)
		t.scanExpr(e.Y, st)
	case *ast.IndexExpr:
		// b[i] on a tracked buffer reads or writes through the
		// reference — an access, not an escape.
		if id, ok := e.X.(*ast.Ident); ok {
			t.useIdent(id, st, false)
		} else {
			t.scanExpr(e.X, st)
		}
		t.scanExpr(e.Index, st)
	case *ast.IndexListExpr:
		t.scanExpr(e.X, st)
		for _, i := range e.Indices {
			t.scanExpr(i, st)
		}
	case *ast.SliceExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			t.useIdent(id, st, false)
		} else {
			t.scanExpr(e.X, st)
		}
		t.scanExpr(e.Low, st)
		t.scanExpr(e.High, st)
		t.scanExpr(e.Max, st)
	case *ast.TypeAssertExpr:
		t.scanExpr(e.X, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			t.scanExpr(el, st)
		}
	case *ast.KeyValueExpr:
		t.scanExpr(e.Key, st)
		t.scanExpr(e.Value, st)
	case *ast.FuncLit:
		// A closure capturing the reference may run at any time: escape.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				t.useIdent(id, st, true)
			}
			return true
		})
	}
}

// walkStmt processes one statement, mutating st, and reports whether
// control flow terminates (return, panic, break/continue/goto).
func (t *slabTracker) walkStmt(s ast.Stmt, st stateMap) bool {
	switch s := s.(type) {
	case nil:
		return false

	case *ast.BlockStmt:
		term := t.walkList(s.List, st)
		if !term {
			t.scopeEnd(s, st)
		}
		return term

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if v, verb, ok := t.releaseTarget(call, st); ok {
				t.release(v, call.Pos(), verb, st)
				if verb == "Handoff" {
					// The remaining arguments are ordinary expressions and
					// may touch other tracked references.
					for _, a := range call.Args[1:] {
						t.scanExpr(a, st)
					}
				}
				return false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				for _, a := range call.Args {
					t.scanExpr(a, st)
				}
				return true
			}
		}
		t.scanExpr(s.X, st)
		return false

	case *ast.AssignStmt:
		t.walkAssign(s, st)
		return false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					if call, ok := val.(*ast.CallExpr); ok && i < len(vs.Names) {
						if kind, ok := t.acquireKind(call); ok {
							t.scanExpr(call, st)
							t.acquire(vs.Names[i], kind, call.Pos(), st)
							continue
						}
					}
					t.scanExpr(val, st)
				}
			}
		}
		return false

	case *ast.DeferStmt:
		if v, _, ok := t.releaseTarget(s.Call, st); ok {
			// defer v.Release() satisfies the obligation for the whole
			// function; later uses stay valid until return.
			if e := st[v]; e.status == stLive {
				e.status = stDone
				st[v] = e
			}
			return false
		}
		t.scanExpr(s.Call, st)
		return false

	case *ast.GoStmt:
		t.scanExpr(s.Call, st)
		return false

	case *ast.SendStmt:
		t.scanExpr(s.Chan, st)
		t.scanExpr(s.Value, st)
		return false

	case *ast.IncDecStmt:
		t.scanExpr(s.X, st)
		return false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			t.scanExpr(r, st)
		}
		for v, e := range st {
			if e.status == stLive {
				t.pass.Reportf(s.Pos(), "slabown",
					"return with %s still held (%s acquired on line %d): missing Release on this path",
					v.Name(), e.kind, t.line(e.acquiredAt))
				e.status = stDone
				st[v] = e
			}
		}
		return true

	case *ast.BranchStmt:
		return true

	case *ast.LabeledStmt:
		return t.walkStmt(s.Stmt, st)

	case *ast.IfStmt:
		t.walkStmt(s.Init, st)
		t.scanExpr(s.Cond, st)
		a := cloneState(st)
		termA := t.walkStmt(s.Body, a)
		b := cloneState(st)
		termB := false
		if s.Else != nil {
			termB = t.walkStmt(s.Else, b)
		}
		switch {
		case termA && termB:
			return true
		case termA:
			replaceState(st, b)
		case termB:
			replaceState(st, a)
		default:
			mergeState(st, a, b)
		}
		return false

	case *ast.ForStmt:
		t.walkStmt(s.Init, st)
		t.scanExpr(s.Cond, st)
		body := cloneState(st)
		t.walkStmt(s.Body, body)
		t.walkStmt(s.Post, body)
		mergeState(st, st, body)
		return false

	case *ast.RangeStmt:
		t.scanExpr(s.X, st)
		body := cloneState(st)
		t.walkStmt(s.Body, body)
		mergeState(st, st, body)
		return false

	case *ast.SwitchStmt:
		t.walkStmt(s.Init, st)
		t.scanExpr(s.Tag, st)
		return t.walkCases(s.Body, st, hasDefault(s.Body))

	case *ast.TypeSwitchStmt:
		t.walkStmt(s.Init, st)
		t.walkStmt(s.Assign, st)
		return t.walkCases(s.Body, st, hasDefault(s.Body))

	case *ast.SelectStmt:
		return t.walkCases(s.Body, st, true)

	default:
		return false
	}
}

func (t *slabTracker) walkList(list []ast.Stmt, st stateMap) bool {
	for _, s := range list {
		if t.walkStmt(s, st) {
			return true
		}
	}
	return false
}

// walkCases analyzes each case body from a copy of the incoming state and
// merges the fall-out states (plus the no-case-taken path when the switch
// has no default).
func (t *slabTracker) walkCases(body *ast.BlockStmt, st stateMap, exhaustive bool) bool {
	var ends []stateMap
	for _, cc := range body.List {
		var caseBody []ast.Stmt
		switch cc := cc.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				t.scanExpr(e, st)
			}
			caseBody = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				t.walkStmt(cc.Comm, cloneState(st))
			}
			caseBody = cc.Body
		}
		c := cloneState(st)
		if !t.walkList(caseBody, c) {
			ends = append(ends, c)
		}
	}
	if !exhaustive {
		ends = append(ends, cloneState(st))
	}
	if len(ends) == 0 {
		return true
	}
	acc := ends[0]
	for _, e := range ends[1:] {
		mergeState(acc, acc, e)
	}
	replaceState(st, acc)
	return false
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cc := range body.List {
		if c, ok := cc.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

func (t *slabTracker) walkAssign(s *ast.AssignStmt, st stateMap) {
	handled := make([]bool, len(s.Rhs))
	if len(s.Lhs) == len(s.Rhs) {
		for i, rhs := range s.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			kind, ok := t.acquireKind(call)
			if !ok {
				continue
			}
			id, ok := s.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			t.scanExpr(call, st) // receiver/args first: s.Retain() is a use of s
			t.acquire(id, kind, call.Pos(), st)
			handled[i] = true
		}
	}
	for i, rhs := range s.Rhs {
		if !handled[i] {
			t.scanExpr(rhs, st)
		}
	}
	for i, lhs := range s.Lhs {
		if i < len(handled) && handled[i] {
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			// Overwriting a tracked handle loses it; stop tracking
			// rather than guess (the leak gate still has it covered).
			if v, ok := t.pass.TypesInfo.Uses[id].(*types.Var); ok {
				if e, tracked := st[v]; tracked && s.Tok == token.ASSIGN {
					e.status = stDone
					st[v] = e
				}
			}
			continue
		}
		t.scanExpr(lhs, st)
	}
}

func (t *slabTracker) acquire(id *ast.Ident, kind string, at token.Pos, st stateMap) {
	var v *types.Var
	if obj, ok := t.pass.TypesInfo.Defs[id].(*types.Var); ok {
		v = obj
	} else if obj, ok := t.pass.TypesInfo.Uses[id].(*types.Var); ok {
		v = obj
	}
	if v == nil {
		return
	}
	st[v] = ownState{status: stLive, kind: kind, acquiredAt: at}
}

func (t *slabTracker) release(v *types.Var, at token.Pos, verb string, st stateMap) {
	e := st[v]
	switch e.status {
	case stLive:
		e.status = stReleased
		e.relVerb = verb
		e.releasedAt = at
		st[v] = e
	case stReleased:
		t.pass.Reportf(at, "slabown",
			"%s released twice (first %s on line %d)", v.Name(), e.relVerb, t.line(e.releasedAt))
		e.status = stDone
		st[v] = e
	}
}

// scopeEnd reports references that a block's end strands: acquired inside
// the block, still live, and now out of scope — nothing can release them.
// This is also what catches a leak per loop iteration.
func (t *slabTracker) scopeEnd(b *ast.BlockStmt, st stateMap) {
	for v, e := range st {
		if e.status == stLive && v.Pos() >= b.Pos() && v.Pos() <= b.End() {
			t.pass.Reportf(e.acquiredAt, "slabown",
				"%s acquired here (%s) goes out of scope without Release", v.Name(), e.kind)
			e.status = stDone
			st[v] = e
		}
	}
}

// replaceState overwrites dst with src in place.
func replaceState(dst, src stateMap) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// mergeState joins two branch-end states into dst: agreeing entries are
// kept, disagreeing ones (released on one path only, escaped on one path
// only) stop being tracked — conservative, never a false positive.
func mergeState(dst, a, b stateMap) {
	out := stateMap{}
	for k, va := range a {
		if vb, ok := b[k]; ok {
			if va.status == vb.status {
				out[k] = va
			} else {
				va.status = stDone
				out[k] = va
			}
		}
	}
	replaceState(dst, out)
}
