package lint_test

import (
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

// TestPartOwn's golden fixture replays the PR 8 VDisk.Write race (a dead
// cross-partition Eng.Now() read) plus the indexed, tainted-local,
// range-value, field-write and argument forms — and proves the sanctioned
// shapes (Mailbox, Handoff, //lint:barrier, accessors, receiver-rooted
// access) stay silent. The marked types live in the sim/simnet/trace
// stand-ins, so the cross-package fact path is exercised too.
func TestPartOwn(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.PartOwn}, "lintdata/ebs/partdata")
}

// The flow-level model's two rules — determinism's floateq and maporder's
// mapfloat — over one fixture.
func TestFluidRules(t *testing.T) {
	linttest.Run(t, "testdata/src", []*lint.Analyzer{lint.Determinism, lint.MapOrder}, "lintdata/internal/simnet/fluiddata")
}

// The full suite over the real repo must be clean: every diagnostic the
// five analyzers would raise is either fixed or carries a justified
// //lint:allow, and every //lint:allow still absorbs a finding (an unused
// one is a kept diagnostic). This is lunavet's own Load + RunSuite
// pipeline, so a cross-partition access anywhere in the tree fails this
// test.
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
	// The partition-owned core types must stay marked: their facts are how
	// partown sees them, so losing a marker silently would disable the check.
	for _, name := range []string{"sim.Engine", "simnet.PacketPool", "trace.Collector"} {
		if !res.Facts.Has("partown", "partowned", name) {
			t.Errorf("partowned fact %q missing: is the //lint:partowned marker still present?", name)
		}
	}
}
