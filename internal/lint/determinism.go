package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// virtualTimePackages are the packages whose code must be a pure function
// of (config, seed): everything that runs under the discrete-event engine,
// which is every library package. The bench/runtime layer inside them may
// measure wall time, but only behind an explicit //lint:allow wallclock
// with a justification. The commands and the benchmark harness sit
// outside.
var virtualTimePackages = []string{"internal", "ebs"}

// fluidPackages is where rate arithmetic meets event times: link
// serialization, BulkService pacing and any future flow-level (fluid)
// code land in internal/simnet.
var fluidPackages = []string{"internal/simnet"}

// Determinism forbids the ways nondeterminism leaks into virtual time:
// the wall clock (time.Now and friends — simulated time comes from the
// engine), the process-global math/rand source (models draw from the
// cluster's seeded *sim.Rand), select statements (runtime-random case
// choice; engine code is single-threaded per shard and has no business
// multiplexing channels), the process environment (modes travel as
// config values, never as os.Getenv knobs) and, in the fluid packages,
// float equality: the fabric turns computed float64 rates into event
// times, and == / != on them makes the outcome depend on rounding, which
// differs across summation orders. The repo's idiom is an epsilon band
// (alloc >= want*(1-eps)).
var Determinism = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// wallclockFuncs are the time package entry points that read or wait on
// the wall clock. Pure-value API (Duration arithmetic, Unix conversions)
// stays allowed.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// envFuncs are the os package entry points that read the process
// environment.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// globalRandOK are the math/rand package-level functions that merely build
// seeded generators; everything else at package level draws from (or
// reseeds) the shared global source.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// math/rand/v2 constructors
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), virtualTimePackages) {
		return nil
	}
	fluid := inScope(pass.Pkg.Path(), fluidPackages)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				// Comparisons against an untyped constant are still flagged:
				// `rate == 0` looks safe but admission on it is
				// order-dependent the moment rate is a sum.
				if fluid && (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isFloat(pass.TypesInfo.TypeOf(n.X)) || isFloat(pass.TypesInfo.TypeOf(n.Y))) {
					pass.Reportf(n.OpPos, "floateq",
						"float equality (%s) in fluid code: rounding makes it order-dependent; compare against an epsilon band", n.Op)
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select",
					"select in a virtual-time package: case choice is runtime-random; schedule events on the engine instead")
			case *ast.SelectorExpr:
				obj, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return true
				}
				if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are fine
				}
				switch obj.Pkg().Path() {
				case "time":
					if wallclockFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "wallclock",
							"time.%s in a virtual-time package: read the engine clock (sim.Engine.Now) instead", obj.Name())
					}
				case "os":
					if envFuncs[obj.Name()] {
						pass.Reportf(n.Pos(), "env",
							"os.%s in a virtual-time package: output must be a pure function of (config, seed); carry the mode on the config", obj.Name())
					}
				case "math/rand", "math/rand/v2":
					if !globalRandOK[obj.Name()] {
						pass.Reportf(n.Pos(), "globalrand",
							"global rand.%s in a virtual-time package: draw from the cluster's seeded *sim.Rand instead", obj.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
