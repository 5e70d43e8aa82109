package lunasolar

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDefinedTests: every test, benchmark, fuzz target or example
// the docs name is a function some _test.go in the repo defines, so a
// deleted or renamed one cannot linger in the prose. A name ending in `*`
// stands for every function with that prefix. ROADMAP.md and CHANGES.md
// name planned and deleted tests, so they are not read.
func TestDocsNameDefinedTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	isDefined := func(name string, prefix bool) bool {
		for _, d := range defined {
			if d == name || prefix && strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}
	named := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)(\*?)`)
	n := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(text), -1) {
			if !isDefined(m[1], m[2] == "*") {
				t.Errorf("%s names %s%s, which no _test.go defines", doc, m[1], m[2])
			}
			n++
		}
	}
	if n == 0 {
		t.Error("the docs name no tests; the pattern no longer matches them")
	}
}
