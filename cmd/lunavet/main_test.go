package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The driver's exit-code contract is what CI keys on: 0 clean, 1 findings,
// 2 anything that prevented the analysis from completing (a crashed or
// misconfigured run must fail the build, never pass it).

// writeModule lays out a one-package module and returns its directory.
func writeModule(t *testing.T, source string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"p.go":   source,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const (
	cleanSource = `package p

func Add(a, b int) int { return a + b }
`
	mapOrderViolation = `package p

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	brokenSource = "package p\n\nfunc f() { not go\n"
)

var (
	// The finding above, absorbed by a justified directive.
	allowedViolation = strings.Replace(mapOrderViolation, "\t\tout = append",
		"\t\t//lint:allow maporder — fixture: order does not reach an output\n\t\tout = append", 1)
	// A directive left behind after its offending line was fixed.
	orphanedAllow = strings.Replace(cleanSource, "func Add",
		"//lint:allow maporder — fixture: the loop this covered is gone\nfunc Add", 1)
)

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		source string   // the module's p.go; "" runs in an empty directory
		args   []string // after "-dir <module>"
		exit   int
		check  func(t *testing.T, stdout string)
	}{
		{name: "clean", source: cleanSource, exit: 0, check: wantEmpty},
		{name: "finding", source: mapOrderViolation, exit: 1, check: func(t *testing.T, out string) {
			if !strings.Contains(out, "p.go:6:3: [maporder] append to out") {
				t.Errorf("text line is not file:line:col: [analyzer] message:\n%s", out)
			}
		}},
		{name: "finding as json", source: mapOrderViolation, args: []string{"-json"}, exit: 1, check: func(t *testing.T, out string) {
			rep := decodeReport(t, out)
			if len(rep.Diagnostics) != 1 {
				t.Fatalf("%d diagnostics, want 1", len(rep.Diagnostics))
			}
			d := rep.Diagnostics[0]
			if d.Analyzer != "maporder" || !strings.HasSuffix(d.File, "p.go") || d.Line != 6 || d.Column != 3 {
				t.Errorf("diagnostic missing annotation fields: %+v", d)
			}
		}},
		{name: "used allow", source: allowedViolation, args: []string{"-json"}, exit: 0, check: func(t *testing.T, out string) {
			rep := decodeReport(t, out)
			if len(rep.Diagnostics) != 0 || len(rep.Suppressed) != 1 {
				t.Errorf("%d kept and %d suppressed, want 0 and 1", len(rep.Diagnostics), len(rep.Suppressed))
			}
			if len(rep.Allows) != 1 || rep.Allows[0].Used != 1 || rep.Allows[0].Keys[0] != "maporder" {
				t.Errorf("allows = %+v, want one maporder directive used once", rep.Allows)
			}
		}},
		{name: "unused allow", source: orphanedAllow, exit: 1, check: func(t *testing.T, out string) {
			if !strings.Contains(out, "p.go:3:1: [allow] //lint:allow maporder absorbs no finding") {
				t.Errorf("orphaned directive not reported:\n%s", out)
			}
		}},
		{name: "unparsable source", source: brokenSource, exit: 2, check: wantEmpty},
		{name: "bad -dir", args: []string{"-dir", "no-such-dir"}, exit: 2, check: wantEmpty},
		// What the second driver and the extra formats used to accept is a
		// usage error now, before anything is loaded or written.
		{name: "-sarif", source: mapOrderViolation, args: []string{"-sarif", "x"}, exit: 2, check: wantEmpty},
		{name: "-summary", source: mapOrderViolation, args: []string{"-summary", "x"}, exit: 2, check: wantEmpty},
		{name: "-suppressions", source: mapOrderViolation, args: []string{"-suppressions"}, exit: 2, check: wantEmpty},
		{name: "-checks", source: mapOrderViolation, args: []string{"-checks", "a"}, exit: 2, check: wantEmpty},
		{name: "-list", source: mapOrderViolation, args: []string{"-list"}, exit: 2, check: wantEmpty},
		{name: "lone cfg", source: mapOrderViolation, args: []string{"x.cfg"}, exit: 2, check: wantEmpty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if c.source != "" {
				dir = writeModule(t, c.source)
			}
			var stdout, stderr bytes.Buffer
			got := run(append([]string{"-dir", dir}, c.args...), &stdout, &stderr)
			if got != c.exit {
				t.Fatalf("exit %d, want %d\nstderr: %s", got, c.exit, stderr.String())
			}
			if (got == 0) != (stderr.Len() == 0) {
				t.Errorf("exit %d with stderr %q: only a clean run is silent there", got, stderr.String())
			}
			c.check(t, stdout.String())
			if left, _ := filepath.Glob("x*"); len(left) != 0 {
				t.Errorf("files written: %v", left)
			}
		})
	}
}

func wantEmpty(t *testing.T, stdout string) {
	t.Helper()
	if stdout != "" {
		t.Errorf("stdout = %q, want nothing", stdout)
	}
}

func decodeReport(t *testing.T, out string) report {
	t.Helper()
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding JSON report: %v\n%s", err, out)
	}
	return rep
}
