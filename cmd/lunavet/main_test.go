package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lunasolar/internal/lint"
)

// The driver's exit-code contract is what CI keys on: 0 clean, 1 findings,
// 2 anything that prevented the analysis from completing (a crashed or
// misconfigured analyzer must fail the build, never pass it).

// writeModule lays out a one-package module and returns its directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const mapOrderViolation = `package p

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`

const cleanSource = `package p

func Add(a, b int) int { return a + b }
`

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	fn()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRunExitCodes(t *testing.T) {
	clean := writeModule(t, map[string]string{"p.go": cleanSource})
	if got := run([]string{"-dir", clean, "./..."}); got != 0 {
		t.Errorf("clean module: exit %d, want 0", got)
	}
	dirty := writeModule(t, map[string]string{"p.go": mapOrderViolation})
	if got := run([]string{"-dir", dirty, "./..."}); got != 1 {
		t.Errorf("module with a finding: exit %d, want 1", got)
	}
	if got := run([]string{"-checks", "bogus"}); got != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", got)
	}
	if got := run([]string{"-dir", filepath.Join(clean, "no-such-dir"), "./..."}); got != 2 {
		t.Errorf("bad -dir: exit %d, want 2", got)
	}
	broken := writeModule(t, map[string]string{"p.go": "package p\n\nfunc f() { not go\n"})
	if got := run([]string{"-dir", broken, "./..."}); got != 2 {
		t.Errorf("unloadable module: exit %d, want 2", got)
	}
}

func TestRunJSONAndSARIF(t *testing.T) {
	dir := writeModule(t, map[string]string{"p.go": mapOrderViolation})
	sarifPath := filepath.Join(t.TempDir(), "lunavet.sarif")
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-dir", dir, "-json", "-sarif", sarifPath, "./..."})
	})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding JSON report: %v\n%s", err, out)
	}
	if len(rep.Diagnostics) == 0 {
		t.Fatalf("JSON report has no diagnostics")
	}
	d := rep.Diagnostics[0]
	if d.Analyzer != "maporder" || d.File == "" || d.Line == 0 {
		t.Errorf("diagnostic missing annotation fields: %+v", d)
	}

	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("reading SARIF: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("decoding SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version %q, %d runs", log.Version, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "lunavet" || len(run0.Tool.Driver.Rules) == 0 {
		t.Errorf("SARIF driver incomplete: %+v", run0.Tool.Driver)
	}
	if len(run0.Results) != len(rep.Diagnostics) {
		t.Fatalf("SARIF results %d != JSON diagnostics %d", len(run0.Results), len(rep.Diagnostics))
	}
	res := run0.Results[0]
	loc := res.Locations[0].PhysicalLocation
	if res.RuleID != "maporder" || loc.ArtifactLocation.URI == "" || loc.Region.StartLine < 1 {
		t.Errorf("SARIF result missing location detail: %+v", res)
	}
}

func TestRunSuppressionsInventory(t *testing.T) {
	src := strings.Replace(mapOrderViolation,
		"\t\tout = append(out, k)",
		"\t\t//lint:allow maporder — fixture: order does not reach an output\n\t\tout = append(out, k)", 1)
	dir := writeModule(t, map[string]string{"p.go": src})
	if got := run([]string{"-dir", dir, "./..."}); got != 0 {
		t.Fatalf("suppressed finding: exit %d, want 0", got)
	}
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-dir", dir, "-suppressions", "./..."})
	})
	if code != 0 {
		t.Fatalf("-suppressions: exit %d, want 0", code)
	}
	if !strings.Contains(out, "allow maporder (used 1)") || !strings.Contains(out, "fixture: order does not reach an output") {
		t.Errorf("inventory output missing directive detail:\n%s", out)
	}
	out = captureStdout(t, func() {
		code = run([]string{"-dir", dir, "-suppressions", "-json", "./..."})
	})
	if code != 0 {
		t.Fatalf("-suppressions -json: exit %d, want 0", code)
	}
	var allows []lint.AllowInfo
	if err := json.Unmarshal([]byte(out), &allows); err != nil {
		t.Fatalf("decoding inventory JSON: %v\n%s", err, out)
	}
	if len(allows) != 1 || allows[0].Used != 1 || allows[0].Keys[0] != "maporder" {
		t.Errorf("unexpected inventory: %+v", allows)
	}
}

// vettoolCfg writes a unit-checker config for one self-contained file.
func vettoolCfg(t *testing.T, cfg vetConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSrc(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVettoolExitCodes(t *testing.T) {
	if got := run([]string{filepath.Join(t.TempDir(), "missing.cfg")}); got != 2 {
		t.Errorf("missing cfg: exit %d, want 2", got)
	}
	bad := writeSrc(t, "bad.cfg", "{not json")
	if got := run([]string{bad}); got != 2 {
		t.Errorf("malformed cfg: exit %d, want 2", got)
	}

	clean := writeSrc(t, "p.go", cleanSource)
	vetx := filepath.Join(t.TempDir(), "p.vetx")
	cfg := vetConfig{ID: "p", Compiler: "gc", ImportPath: "p", GoFiles: []string{clean}, VetxOutput: vetx}
	if got := run([]string{vettoolCfg(t, cfg)}); got != 0 {
		t.Errorf("clean package: exit %d, want 0", got)
	}
	if data, err := os.ReadFile(vetx); err != nil || string(data) != "[]" {
		t.Errorf("clean package vetx: want \"[]\", got %q, err %v", data, err)
	}

	dirty := writeSrc(t, "p.go", mapOrderViolation)
	cfg = vetConfig{ID: "p", Compiler: "gc", ImportPath: "p", GoFiles: []string{dirty}}
	if got := run([]string{vettoolCfg(t, cfg)}); got != 1 {
		t.Errorf("package with a finding: exit %d, want 1", got)
	}

	// VetxOnly must still parse and collect: a package whose facts cannot
	// be extracted fails the build instead of silently exporting nothing.
	broken := writeSrc(t, "p.go", "package p\n\nfunc f() { not go\n")
	cfg = vetConfig{ID: "p", Compiler: "gc", ImportPath: "p", GoFiles: []string{broken}, VetxOnly: true}
	if got := run([]string{vettoolCfg(t, cfg)}); got != 2 {
		t.Errorf("VetxOnly with broken source: exit %d, want 2", got)
	}

	// A corrupt dependency facts file is an internal error, not a pass.
	badVetx := writeSrc(t, "dep.vetx", "{corrupt")
	cfg = vetConfig{ID: "p", Compiler: "gc", ImportPath: "p", GoFiles: []string{clean},
		PackageVetx: map[string]string{"dep": badVetx}}
	if got := run([]string{vettoolCfg(t, cfg)}); got != 2 {
		t.Errorf("corrupt dependency vetx: exit %d, want 2", got)
	}
}

func TestVettoolExportsFacts(t *testing.T) {
	// A partowned marker must come back out through VetxOutput so
	// importers see it.
	src := writeSrc(t, "p.go", `package ebs

//lint:partowned
type Shard struct{ n int }

func (s *Shard) N() int { return s.n }
`)
	vetx := filepath.Join(t.TempDir(), "ebs.vetx")
	cfg := vetConfig{ID: "x/ebs", Compiler: "gc", ImportPath: "x/ebs",
		GoFiles: []string{src}, VetxOnly: true, VetxOutput: vetx}
	if got := run([]string{vettoolCfg(t, cfg)}); got != 0 {
		t.Fatalf("VetxOnly collect: exit %d, want 0", got)
	}
	data, err := os.ReadFile(vetx)
	if err != nil {
		t.Fatalf("reading vetx: %v", err)
	}
	var facts []lint.Fact
	if err := json.Unmarshal(data, &facts); err != nil {
		t.Fatalf("decoding vetx: %v\n%s", err, data)
	}
	var found bool
	for _, f := range facts {
		if f.Analyzer == "partown" && f.Kind == "partowned" && f.Name == "ebs.Shard" {
			found = true
		}
	}
	if !found {
		t.Errorf("partowned fact not exported; vetx contents: %s", data)
	}

	// Round-trip: a fresh fact set seeded from that vetx sees the fact.
	fs := lint.NewFactSet()
	if err := readVetx(vetx, fs); err != nil {
		t.Fatalf("readVetx: %v", err)
	}
	if !fs.Has("partown", "partowned", "ebs.Shard") {
		t.Errorf("fact lost on the read side")
	}
}
