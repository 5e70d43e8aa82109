package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PartOwn enforces the coupled-fabric ownership rule from DESIGN.md: in
// partitioned execution every engine, packet pool, trace collector, rand
// stream and link-state snapshot belongs to exactly one partition, and
// only that partition's window may touch it. The sanctioned crossings are
// the mailbox (sim.Mailbox / crossInbox.Handoff — thread-safe transfer of
// ownership) and barrier-time code, which runs on the coordinator while
// no window is active.
//
// The analysis is annotation-driven. Type declarations carry markers that
// Collect exports as cross-package facts:
//
//	//lint:partowned  — per-partition state (sim.Engine, sim.Rand,
//	                    simnet.PacketPool, simnet.Port, simnet.fabricPart,
//	                    trace.Collector)
//	//lint:spanning   — structures holding every partition's state
//	                    (simnet.Fabric, ebs.Cluster)
//	//lint:crossing   — the sanctioned crossing (sim.Mailbox); its methods
//	                    and any method named Handoff are always allowed
//
// In partition-scope packages (internal/simnet, ebs) the analyzer flags
// code that reaches partition-owned state through a spanning structure —
// a foreign access, since nothing ties the caller to that partition's
// window:
//
//   - method calls on a foreign partowned value (v.cluster.Eng.Now() —
//     the PR 8 VDisk.Write race — or pool/collector/rand methods reached
//     via fab.parts[i] or a range over them);
//   - writes to a foreign partowned value's fields (publishing link
//     state);
//   - passing a foreign partowned value to any call (handing another
//     partition's collector or pool to code that will touch it).
//
// Receiver-rooted access (a fabricPart method touching its own pool) and
// values obtained from method calls (c.Collector().E2E(...) — accessor
// methods vouch for what they return) stay silent. Functions whose doc
// comment carries //lint:barrier are exempt: they declare (and document)
// that they run only while no window is active, which is exactly the
// contract DrainInboxes, PublishCutState and the Cluster drivers already
// state in prose.
var PartOwn = &Analyzer{
	Name:    "partown",
	Run:     runPartOwn,
	Collect: collectPartOwn,
}

// partitionPackages is where partitioned execution lives: the fabric and
// the cluster wiring above it. The experiment drivers sit above Cluster's
// barrier-annotated API and are not re-checked.
var partitionPackages = []string{"internal/simnet", "ebs"}

const (
	partownedMarker = "//lint:partowned"
	spanningMarker  = "//lint:spanning"
	crossingMarker  = "//lint:crossing"
	barrierMarker   = "//lint:barrier"
)

// collectPartOwn exports one fact per marked type declaration. Types are
// named package-name.TypeName (not import path), so fixture stand-ins
// exercise the analyzer exactly like the real packages.
func collectPartOwn(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, marker := range []string{partownedMarker, spanningMarker, crossingMarker} {
					if hasMarker(gd.Doc, marker) || hasMarker(ts.Doc, marker) || hasMarker(ts.Comment, marker) {
						kind := strings.TrimPrefix(marker, "//lint:")
						pass.ExportFact(kind, pass.Pkg.Name()+"."+ts.Name.Name)
					}
				}
			}
		}
	}
	return nil
}

// hasMarker reports whether a comment group contains the given //lint:
// marker as a whole directive (an exact match or followed by a space).
func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if !strings.HasPrefix(c.Text, marker) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, marker)
		if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
			return true
		}
	}
	return false
}

// partTracker is one package's view of the marked-type facts.
type partTracker struct {
	pass    *Pass
	tainted map[*types.Var]bool // locals bound to foreign partition state
}

func runPartOwn(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), partitionPackages) {
		return nil
	}
	t := &partTracker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasMarker(fd.Doc, barrierMarker) {
				continue
			}
			t.checkFunc(fd)
		}
	}
	return nil
}

// typeName resolves a type to its package-qualified named form ("sim.Engine"),
// dereferencing one pointer level; "" for unnamed types.
func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

func (t *partTracker) marked(kind string, tt types.Type) bool {
	return t.pass.Facts.Has("partown", kind, typeName(tt))
}
func (t *partTracker) isPartowned(tt types.Type) bool { return t.marked("partowned", tt) }
func (t *partTracker) isSpanning(tt types.Type) bool  { return t.marked("spanning", tt) }
func (t *partTracker) isCrossing(tt types.Type) bool  { return t.marked("crossing", tt) }

// elemPartowned reports whether tt is a container (slice, array, map)
// whose elements are partition-owned.
func (t *partTracker) elemPartowned(tt types.Type) bool {
	if tt == nil {
		return false
	}
	switch u := tt.Underlying().(type) {
	case *types.Slice:
		return t.isPartowned(u.Elem())
	case *types.Array:
		return t.isPartowned(u.Elem())
	case *types.Map:
		return t.isPartowned(u.Elem())
	case *types.Pointer:
		return t.elemPartowned(u.Elem())
	}
	return false
}

// foreign reports whether e denotes another partition's state: a selector
// chain that steps from a spanning value into partition-owned state, an
// index into (or a local bound from) such a chain. Method-call results
// terminate the chain — accessors vouch for what they return.
func (t *partTracker) foreign(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[e].(*types.Var); ok {
			return t.tainted[v]
		}
	case *ast.SelectorExpr:
		if t.foreign(e.X) {
			return true
		}
		xt := t.pass.TypesInfo.TypeOf(e.X)
		et := t.pass.TypesInfo.TypeOf(e)
		return t.isSpanning(xt) && (t.isPartowned(et) || t.elemPartowned(et))
	case *ast.IndexExpr:
		return t.foreign(e.X)
	case *ast.ParenExpr:
		return t.foreign(e.X)
	case *ast.StarExpr:
		return t.foreign(e.X)
	case *ast.UnaryExpr:
		return t.foreign(e.X)
	}
	return false
}

// foreignContainer reports whether e is a collection of partition-owned
// values reached through a spanning structure (f.parts, c.engines, the
// cut-port list) — ranging or indexing it yields foreign state.
func (t *partTracker) foreignContainer(e ast.Expr) bool {
	if !t.elemPartowned(t.pass.TypesInfo.TypeOf(e)) {
		return false
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return t.foreign(e.X) || t.isSpanning(t.pass.TypesInfo.TypeOf(e.X))
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[e].(*types.Var); ok {
			return t.tainted[v]
		}
	}
	return false
}

// checkFunc analyzes one function: a flow-insensitive taint pass binding
// locals to foreign state, then the access checks.
func (t *partTracker) checkFunc(fd *ast.FuncDecl) {
	t.tainted = map[*types.Var]bool{}
	// Taint to fixpoint: a local bound from a foreign expression (or a
	// range over a foreign container) is foreign wherever it appears.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if t.foreign(rhs) || t.foreignContainer(rhs) {
						changed = t.taint(n.Lhs[i]) || changed
					}
				}
			case *ast.RangeStmt:
				if t.foreignContainer(n.X) || t.foreign(n.X) {
					changed = t.taint(n.Value) || changed
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			t.checkCall(n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				t.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			t.checkWrite(n.X)
		}
		return true
	})
}

func (t *partTracker) taint(lhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := t.pass.TypesInfo.Defs[id].(*types.Var)
	if v == nil {
		v, _ = t.pass.TypesInfo.Uses[id].(*types.Var)
	}
	if v == nil || t.tainted[v] {
		return false
	}
	tt := v.Type()
	if !t.isPartowned(tt) && !t.elemPartowned(tt) {
		return false
	}
	t.tainted[v] = true
	return true
}

// checkCall flags method calls on foreign partowned values and foreign
// partowned values passed as arguments. The check keys on the type the
// method is called through (not the declared receiver), so promoted
// methods from embedded fields are caught too.
func (t *partTracker) checkCall(call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		xt := t.pass.TypesInfo.TypeOf(sel.X)
		switch {
		case t.isCrossing(xt) || sel.Sel.Name == "Handoff":
			// The sanctioned crossing: ownership transfers through the
			// mailbox. Arguments are the transfer itself.
			return
		case t.isPartowned(xt) && t.foreign(sel.X):
			t.pass.Reportf(call.Pos(), "partown",
				"call to %s.%s on another partition's state: only its own window may touch it; cross via Mailbox/Handoff or run at a barrier (//lint:barrier)",
				typeName(xt), sel.Sel.Name)
		}
	}
	for _, arg := range call.Args {
		at := t.pass.TypesInfo.TypeOf(arg)
		if t.isPartowned(at) && t.foreign(arg) {
			t.pass.Reportf(arg.Pos(), "partown",
				"another partition's %s passed as an argument: only its own window may touch it; cross via Mailbox/Handoff or run at a barrier (//lint:barrier)",
				typeName(at))
		}
	}
}

// checkWrite flags stores into fields of foreign partowned values.
func (t *partTracker) checkWrite(lhs ast.Expr) {
	// Unwrap element stores (ps.drops[reason]++) down to the selector.
	for {
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			lhs = ix.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	xt := t.pass.TypesInfo.TypeOf(sel.X)
	if t.isPartowned(xt) && t.foreign(sel.X) {
		t.pass.Reportf(sel.Pos(), "partown",
			"write to %s.%s of another partition's state: only its own window may touch it; cross via Mailbox/Handoff or run at a barrier (//lint:barrier)",
			typeName(xt), sel.Sel.Name)
	}
}
