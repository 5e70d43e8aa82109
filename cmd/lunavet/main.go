// Command lunavet runs the internal/lint analysis suite — determinism,
// maporder, slabown, hotalloc, partown, fluiddet — over the repo's
// packages and fails on any non-suppressed diagnostic. It is the
// compile-time half of the invariants the runtime gates (leak gate,
// differential tests, AllocsPerRun) enforce after the fact; see DESIGN.md
// "Invariants & how they are enforced".
//
// Two modes:
//
//	lunavet [flags] [packages]      standalone, e.g. `lunavet ./...`
//	go vet -vettool=$(which lunavet) ./...
//
// The second form speaks `go vet`'s unit-checker protocol (a .cfg file
// per package), so lunavet composes with vet's caching and package graph;
// cross-package facts ride in the .vetx files vet threads through the
// build graph. The standalone form runs the whole suite pipeline in one
// process: fact collection over every package (dependencies included),
// then per-package checks.
//
// Findings are machine-readable on demand: -json emits the full report
// (diagnostics, suppressed findings, suppression inventory), -sarif
// writes a SARIF 2.1.0 log for code-scanning upload, and -suppressions
// prints the //lint:allow inventory — file, line, keys, justification and
// how many findings each directive absorbed — so suppression drift is
// visible in CI step summaries.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure
// (including analyzer-internal errors — a crashed analyzer never passes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lunasolar/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// `go vet` probes the tool's identity with -V=full before handing it
	// package configs; answer before flag parsing sees anything else.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("lunavet version devel-stdlib\n")
			return 0
		}
		// The vet driver also asks which analyzer flags the tool accepts;
		// the suite exposes none.
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return 0
		}
	}

	fs := flag.NewFlagSet("lunavet", flag.ContinueOnError)
	var (
		jsonOut      = fs.Bool("json", false, "emit the report as JSON")
		sarifOut     = fs.String("sarif", "", "write a SARIF 2.1.0 log to this file")
		summary      = fs.String("summary", "", "write a GitHub-flavored markdown summary to this file")
		suppressions = fs.Bool("suppressions", false, "print the //lint:allow inventory and exit clean")
		checks       = fs.String("checks", "", "comma-separated analyzer subset (default: all)")
		listOnly     = fs.Bool("list", false, "list analyzers and exit")
		dir          = fs.String("dir", ".", "directory to resolve package patterns from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lunavet:", err)
		return 2
	}
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	// Unit-checker mode: go vet invokes the tool with a single *.cfg path.
	if rest := fs.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVettool(rest[0], analyzers)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lunavet:", err)
		return 2
	}
	res, err := lint.RunSuite(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lunavet:", err)
		return 2
	}

	kept, suppressed := []posDiag{}, []posDiag{}
	var allows []lint.AllowInfo
	for _, pr := range res.Pkgs {
		for _, d := range pr.Kept {
			kept = append(kept, toPosDiag(pr.Pkg.Fset.Position(d.Pos), d))
		}
		for _, d := range pr.Suppressed {
			suppressed = append(suppressed, toPosDiag(pr.Pkg.Fset.Position(d.Pos), d))
		}
		allows = append(allows, pr.Allows...)
	}

	if *suppressions {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(allows); err != nil {
				fmt.Fprintln(os.Stderr, "lunavet:", err)
				return 2
			}
			return 0
		}
		if len(allows) == 0 {
			fmt.Println("no //lint:allow directives")
			return 0
		}
		for _, a := range allows {
			fmt.Printf("%s:%d: allow %s (used %d) — %s\n",
				relPath(a.File), a.Line, strings.Join(a.Keys, ","), a.Used, a.Justification)
		}
		return 0
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Diagnostics: kept, Suppressed: suppressed, Allows: allows}); err != nil {
			fmt.Fprintln(os.Stderr, "lunavet:", err)
			return 2
		}
	} else {
		for _, d := range kept {
			fmt.Printf("%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, analyzers, kept); err != nil {
			fmt.Fprintln(os.Stderr, "lunavet:", err)
			return 2
		}
	}
	if *summary != "" {
		if err := writeSummary(*summary, kept, suppressed, allows, len(res.Pkgs)); err != nil {
			fmt.Fprintln(os.Stderr, "lunavet:", err)
			return 2
		}
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "lunavet: %d diagnostic(s) in %d package(s); %d suppressed by //lint:allow\n",
			len(kept), len(res.Pkgs), len(suppressed))
		return 1
	}
	return 0
}

// posDiag is a diagnostic with its position resolved, ready for printing,
// JSON, SARIF, or CI diff annotations (File/Line are what the annotate
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

// writeSummary renders a markdown report for CI step summaries.
func writeSummary(path string, kept, suppressed []posDiag, allows []lint.AllowInfo, npkgs int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## lunavet\n\n")
	if len(kept) == 0 {
		fmt.Fprintf(&b, "✅ %d packages analyzed, no diagnostics", npkgs)
	} else {
		fmt.Fprintf(&b, "❌ %d diagnostic(s) across %d packages", len(kept), npkgs)
	}
	fmt.Fprintf(&b, " (%d suppressed by `//lint:allow`).\n\n", len(suppressed))
	if len(kept) > 0 {
		fmt.Fprintf(&b, "| Position | Analyzer | Message |\n|---|---|---|\n")
		for _, d := range kept {
			fmt.Fprintf(&b, "| `%s` | %s | %s |\n", d.Pos, d.Analyzer, escapeMD(d.Message))
		}
		fmt.Fprintln(&b)
	}
	if len(suppressed) > 0 {
		byAnalyzer := map[string]int{}
		for _, d := range suppressed {
			byAnalyzer[d.Analyzer]++
		}
		var names []string
		for n := range byAnalyzer {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "<details><summary>Suppressed findings</summary>\n\n")
		for _, n := range names {
			fmt.Fprintf(&b, "- %s: %d\n", n, byAnalyzer[n])
		}
		fmt.Fprintf(&b, "\n</details>\n\n")
	}
	if len(allows) > 0 {
		fmt.Fprintf(&b, "<details><summary>Suppression inventory (%d directives)</summary>\n\n", len(allows))
		fmt.Fprintf(&b, "| Directive | Keys | Used | Justification |\n|---|---|---|---|\n")
		for _, a := range allows {
			used := fmt.Sprintf("%d", a.Used)
			if a.Used == 0 {
				used = "**0 — drift?**"
			}
			fmt.Fprintf(&b, "| `%s:%d` | %s | %s | %s |\n",
				relPath(a.File), a.Line, strings.Join(a.Keys, ", "), used, escapeMD(a.Justification))
		}
		fmt.Fprintf(&b, "\n</details>\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func escapeMD(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
