package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lunasolar/internal/experiments"
)

// TestRun drives the whole command: a bad selection exits before any
// experiment function is entered; -list keeps its shape.
func TestRun(t *testing.T) {
	entered := 0
	fig3 := registry["fig3"]
	defer func() { registry["fig3"] = fig3 }()
	counted := fig3
	counted.fn = func(o experiments.Options) *experiments.Table { entered++; return fig3.fn(o) }
	registry["fig3"] = counted

	listed := func(t *testing.T, out string) {
		var got, want []string
		for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
			got = append(got, strings.Fields(line)[0])
		}
		for id := range registry {
			want = append(want, id)
		}
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("-list names %v, want the sorted registry keys %v", got, want)
		}
	}
	// Fig 3 exports no telemetry, so its -metrics-out file holds no rows.
	metricsOut := filepath.Join(t.TempDir(), "METRICS.json")
	tabled := func(t *testing.T, out string) {
		if !strings.HasPrefix(out, "=== Figure 3:") {
			t.Errorf("-exp fig3 printed %q, want the Figure 3 table", out)
		}
		text, err := os.ReadFile(metricsOut)
		if err != nil || !strings.Contains(string(text), `"metrics": []`) {
			t.Errorf("-metrics-out wrote %q (%v), want an export with no rows", text, err)
		}
	}

	for _, tc := range []struct {
		args          string
		code, entered int
		stderr        string
		stdout        func(*testing.T, string)
	}{
		{"-exp fig3,typo", 2, 0, `ebsbench: unknown experiment "typo" in -exp (try -list)`, nil},
		{"-exp fig3 -cc dcqcn", 2, 0, "flag provided but not defined: -cc", nil},
		{"-exp fig3,fig3", 2, 0, `experiment "fig3" given twice`, nil},
		{"-exp fig3 -workers -3", 2, 0, "-workers -3 is negative", nil},
		{"-exp fig3 -json", 2, 0, "flag provided but not defined: -json", nil},
		{"-metrics-out unwritten.json", 2, 0, "-metrics-out needs -exp", nil},
		{"-list", 0, 0, "", listed},
		{"-exp fig3 -metrics-out " + metricsOut, 0, 1, "", tabled},
	} {
		var stdout, stderr bytes.Buffer
		entered = 0
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || entered != tc.entered || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ebsbench %s: exit %d, %d experiments entered, stderr %q; want exit %d, %d entered, stderr containing %q",
				tc.args, code, entered, stderr.String(), tc.code, tc.entered, tc.stderr)
		}
		if tc.stdout != nil {
			tc.stdout(t, stdout.String())
		}
	}
}

// TestDocsNameRegisteredExperiments: every `-exp` id the docs tell a reader
// to run is in the registry, so a deleted or renamed experiment cannot
// linger in a usage line.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	expArg := regexp.MustCompile(`-exp[ =]+([a-z0-9][a-z0-9,_-]*)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		named := 0
		for _, m := range expArg.FindAllStringSubmatch(string(text), -1) {
			for _, id := range strings.Split(m[1], ",") {
				if _, ok := registry[id]; id != "all" && !ok {
					t.Errorf("%s names -exp %s, which is not a registered experiment", doc, id)
				}
				named++
			}
		}
		if named == 0 {
			t.Errorf("%s names no -exp id; the pattern no longer matches its usage lines", doc)
		}
	}
}
