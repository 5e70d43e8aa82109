// Package linttest is a stdlib-only stand-in for
// golang.org/x/tools/go/analysis/analysistest: it loads fixture packages
// from a testdata module, runs analyzers over them, and checks the
// reported diagnostics against // want comments in the fixture source.
//
// Conventions (same as analysistest):
//
//	x := time.Now() // want `time\.Now`
//
// Every diagnostic on a line must be matched by one of the line's want
// regexes, and every want regex must be matched by a diagnostic; either
// leftover fails the test. A fixture line with an //lint:allow directive
// and no want comment is the standard way to prove suppression works.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lunasolar/internal/lint"
)

// expectation is one want regex awaiting a diagnostic.
type expectation struct {
	rx      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the packages matching patterns from the module rooted at dir
// (conventionally "testdata/src") and checks analyzer output against the
// fixtures' want comments, through the same RunSuite pipeline lunavet
// runs. Packages loaded only as dependencies are not analyzed, so their
// want comments are not checked.
func Run(t *testing.T, dir string, analyzers []*lint.Analyzer, patterns ...string) {
	t.Helper()
	pkgs, err := lint.Load(dir, patterns)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages matched %v under %s", patterns, dir)
	}
	res, err := lint.RunSuite(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	// One want map across every checked (non-dependency) package: all
	// fixture files share the suite's FileSet.
	var files []*ast.File
	fset := pkgs[0].Fset
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		files = append(files, pkg.Files...)
	}
	wants := collectWants(t, fset, files)
	for _, pr := range res.Pkgs {
		for _, d := range pr.Kept {
			pos := fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			if !matchWant(wants[key], d.Message) {
				t.Errorf("%s: unexpected diagnostic [%s] %s", key, d.Analyzer, d.Message)
			}
		}
	}
	reportUnmatched(t, wants)
}

// matchWant marks and reports the first unmatched expectation whose regex
// matches the message.
func matchWant(exps []*expectation, message string) bool {
	for _, e := range exps {
		if !e.matched && e.rx.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

func reportUnmatched(t *testing.T, wants map[string][]*expectation) {
	t.Helper()
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, e.raw)
			}
		}
	}
}

// collectWants parses `// want "rx" "rx"` comments, keyed by file:line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string][]*expectation {
	t.Helper()
	wants := map[string][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, raw := range splitQuoted(t, c.Text[i+len("want "):], key) {
					rx, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					wants[key] = append(wants[key], &expectation{rx: rx, raw: raw})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the double- or backtick-quoted strings from a want
// comment's tail.
func splitQuoted(t *testing.T, s, key string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", key, s)
			}
			un, err := strconv.Unquote(s[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want string %s: %v", key, s[:end+1], err)
			}
			out = append(out, un)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want string: %s", key, s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			return out
		}
	}
	return out
}
