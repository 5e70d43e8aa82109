package lint

import (
	"go/ast"
	"go/types"
)

// VirtualTimePackages are the packages whose code must be a pure function
// of (config, seed): everything that runs under the discrete-event engine.
// The bench/runtime layer inside them may measure wall time, but only
// behind an explicit //lint:allow wallclock with a justification.
var VirtualTimePackages = []string{
	"internal/sim*", // sim, sim/runtime, simnet
	"internal/core",
	"internal/tcpstack",
	"internal/rdma",
	"internal/transport",
}

// Determinism forbids the four ways nondeterminism leaks into virtual
// time: the wall clock (time.Now and friends — simulated time comes from
// the engine), the process-global math/rand source (models draw from the
// cluster's seeded *sim.Rand), select statements (runtime-random case
// choice; engine code is single-threaded per shard and has no business
// multiplexing channels), and the process environment (modes travel as
// config values, never as os.Getenv knobs).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, select and environment reads in " +
		"virtual-time packages so experiment output stays a pure function of (config, seed)",
	Run: runDeterminism,
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
	if !inScope(pass.Pkg.Path(), VirtualTimePackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
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
