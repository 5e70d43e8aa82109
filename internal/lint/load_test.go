package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"lunasolar/internal/lint"
)

// The loader feeds everything downstream — analyzers and suppression
// scanning — so its contract is pinned here: matched packages load typed,
// dependencies arrive DepOnly, file-less packages are skipped, and load
// failures surface as errors instead of silently analyzing less code.

func TestLoadFixtureModule(t *testing.T) {
	pkgs, err := lint.Load("testdata/src", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := map[string]*lint.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		if p.Fset != pkgs[0].Fset {
			t.Errorf("%s: packages from one Load must share a FileSet", p.ImportPath)
		}
	}
	mo := byPath["lintdata/maporder"]
	if mo == nil {
		t.Fatalf("lintdata/maporder not loaded; got %d packages", len(pkgs))
	}
	if mo.DepOnly {
		t.Errorf("maporder matched the pattern; must not be DepOnly")
	}
	if mo.Types == nil || mo.TypesInfo == nil {
		t.Errorf("maporder loaded without type information")
	}
}

func TestLoadDepsAreDepOnly(t *testing.T) {
	pkgs, err := lint.Load("testdata/src", []string{"lintdata/maporder"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	depOnly := map[string]bool{}
	for _, p := range pkgs {
		depOnly[p.ImportPath] = p.DepOnly
	}
	if got, ok := depOnly["lintdata/maporder"]; !ok || got {
		t.Errorf("maporder: want loaded with DepOnly=false, got ok=%v DepOnly=%v", ok, got)
	}
	// maporder imports the sim and stats stand-ins; they must load as
	// DepOnly so the suite never analyzes (or re-reports on) dependency
	// code.
	for _, dep := range []string{"lintdata/sim", "lintdata/stats"} {
		if got, ok := depOnly[dep]; !ok || !got {
			t.Errorf("%s: want loaded with DepOnly=true, got ok=%v DepOnly=%v", dep, ok, got)
		}
	}
}

func TestLoadBadDir(t *testing.T) {
	if _, err := lint.Load(filepath.Join("testdata", "no-such-dir"), []string{"./..."}); err == nil {
		t.Fatalf("Load from a missing directory: want error, got nil")
	}
}

func TestLoadBrokenSource(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module broken\n\ngo 1.22\n")
	writeFile(t, dir, "broken.go", "package broken\n\nfunc f() { this is not go\n")
	if _, err := lint.Load(dir, []string{"./..."}); err == nil {
		t.Fatalf("Load of a package with a syntax error: want error, got nil")
	}
}

func TestLoadSkipsTestOnlyPackages(t *testing.T) {
	// The repo root holds only benchmarks; a pattern matching such a
	// package must skip it, not fail the whole load.
	dir := t.TempDir()
	writeFile(t, dir, "go.mod", "module testonly\n\ngo 1.22\n")
	writeFile(t, dir, "only_test.go", "package testonly\n\nimport \"testing\"\n\nfunc TestNothing(t *testing.T) {}\n")
	writeFile(t, filepath.Join(dir, "real"), "real.go", "package real\n\nfunc Real() int { return 1 }\n")
	pkgs, err := lint.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if p.ImportPath == "testonly" {
			t.Errorf("test-only root package was loaded; it has no GoFiles to analyze")
		}
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "testonly/real" {
		t.Errorf("want exactly the real subpackage, got %d packages", len(pkgs))
	}
}

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
