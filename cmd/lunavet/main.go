// Command lunavet runs the internal/lint analysis suite — determinism,
// maporder, slabown, hotalloc — over the repo's packages and
// fails on any non-suppressed diagnostic. It is the compile-time half of
// the invariants the runtime gates (leak gate, differential tests,
// AllocsPerRun) enforce after the fact; see DESIGN.md "Invariants & how
// they are enforced".
//
//	lunavet [-json] [-dir d] [packages]     e.g. `lunavet ./...`
//
// One mode: the whole suite in one process, package by package. Findings
// print as `file:line:col: [analyzer] message`; -json emits the full
// report instead (diagnostics with file/line/column for CI annotations,
// suppressed findings, and every //lint:allow with how many findings it
// absorbed). An //lint:allow that absorbs nothing is itself a finding.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure
// (including analyzer-internal errors — a crashed analyzer never passes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lunasolar/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lunavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "lunavet:", err)
		return 2
	}
	res, err := lint.RunSuite(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(stderr, "lunavet:", err)
		return 2
	}

	rep := report{Diagnostics: []posDiag{}, Suppressed: []posDiag{}}
	for _, pr := range res.Pkgs {
		for _, d := range pr.Kept {
			rep.Diagnostics = append(rep.Diagnostics, toPosDiag(pr.Pkg.Fset.Position(d.Pos), d))
		}
		for _, d := range pr.Suppressed {
			rep.Suppressed = append(rep.Suppressed, toPosDiag(pr.Pkg.Fset.Position(d.Pos), d))
		}
		rep.Allows = append(rep.Allows, pr.Allows...)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "lunavet:", err)
			return 2
		}
	} else {
		for _, d := range rep.Diagnostics {
			fmt.Fprintf(stdout, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(rep.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "lunavet: %d diagnostic(s) in %d package(s); %d suppressed by //lint:allow\n",
			len(rep.Diagnostics), len(res.Pkgs), len(rep.Suppressed))
		return 1
	}
	return 0
}

// posDiag is a diagnostic with its position resolved, ready for printing,
// JSON or CI diff annotations (File/Line/Column are what the annotate
// step feeds to GitHub's ::error command).
type posDiag struct {
	Pos      string `json:"pos"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

type report struct {
	Diagnostics []posDiag        `json:"diagnostics"`
	Suppressed  []posDiag        `json:"suppressed"`
	Allows      []lint.AllowInfo `json:"allows"`
}

func toPosDiag(pos token.Position, d lint.Diagnostic) posDiag {
	pos.Filename = relPath(pos.Filename)
	return posDiag{
		Pos:      pos.String(),
		File:     pos.Filename,
		Line:     pos.Line,
		Column:   pos.Column,
		Analyzer: d.Analyzer,
		Category: d.Category,
		Message:  d.Message,
	}
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return wd
}

// relPath shortens an absolute path to repo-relative when possible.
func relPath(name string) string {
	if rel, err := filepath.Rel(mustGetwd(), name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
