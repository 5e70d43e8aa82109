package lint_test

import (
	"strings"
	"testing"

	"lunasolar/internal/lint"
	"lunasolar/internal/lint/linttest"
)

// Each analyzer runs against golden fixtures that prove both directions:
// it fires on every violation shape (the // want comments) and stays
// silent on the allowed patterns (fixture lines with no want).

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.Determinism},
		"lintdata/internal/sim/determ", // in scope: every violation fires
		"lintdata/bench",               // out of scope: same calls, no findings
	)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.MapOrder}, "lintdata/maporder")
}

func TestSlabOwn(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.SlabOwn}, "lintdata/slabown")
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.HotAlloc}, "lintdata/hotalloc")
}

// The flow-level model's two rules — determinism's floateq and maporder's
// mapfloat — over one fixture.
func TestFluidRules(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.Determinism, lint.MapOrder}, "lintdata/internal/simnet/fluiddata")
}

// The full suite over the real repo must be clean: every diagnostic the
// four analyzers would raise is either fixed or carries a justified
// //lint:allow, and every //lint:allow still absorbs a finding (an unused
// one is a kept diagnostic). This is lunavet's own Load + RunSuite
// pipeline.
func TestSuiteOverRepo(t *testing.T) {
	pkgs, err := lint.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected to load the whole repo, got %d packages", len(pkgs))
	}
	res, err := lint.RunSuite(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	allows := 0
	for _, pr := range res.Pkgs {
		for _, d := range pr.Kept {
			t.Errorf("%s: [%s] %s", pr.Pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		allows += len(pr.Allows)
	}
	// The audited suppressions — two wall-time reads in sim/runtime — must
	// still be there to be audited.
	if allows != 2 {
		t.Errorf("%d //lint:allow directives, want the 2 audited ones", allows)
	}
	// The suite reads two directives, //lint:allow and //lint:hotpath; any
	// other //lint: marker is one no analyzer reads, so it checks nothing.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if d, ok := strings.CutPrefix(c.Text, "//lint:"); ok &&
						!strings.HasPrefix(d, "allow") && !strings.HasPrefix(d, "hotpath") {
						t.Errorf("%s: %s is not a lunavet directive", pkg.Fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}
