// Package lint is lunavet's analysis suite: four analyzers that enforce,
// at analysis time, the invariants the simulator otherwise only catches at
// run time — bit-identical virtual-time output (determinism, maporder),
// slab/packet Retain-Release pairing (slabown) and allocation-free hot
// paths (hotalloc).
//
// The package deliberately depends only on the standard library. The types
// here mirror golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic)
// closely enough that porting onto the real framework is a mechanical
// change, but the repo builds and lints with nothing beyond the Go
// toolchain — no module downloads, no vendoring.
//
// One mode: Load type-checks the packages, RunSuite runs the analyzers
// over them in one process.
//
// Suppressions. A diagnostic is suppressed by a comment on the offending
// line or the line directly above it:
//
//	//lint:allow <key>[,<key>...] — <justification>
//
// where <key> is the analyzer name or the diagnostic category (e.g.
// "wallclock"). The directive is itself checked: one with no stated
// reason, or one that no longer absorbs any finding, is reported as a
// diagnostic of the pseudo-analyzer "allow".
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis: a named check with a Run function
// that inspects a package and reports diagnostics through the Pass.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "determinism"
	Run  func(*Pass) error
}

// All returns the full lunavet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, SlabOwn, HotAlloc}
}

// A Diagnostic is one finding at a position. Category is the suppression
// key ("wallclock", "globalrand", ...); it defaults to the analyzer name.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Category string
	Message  string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic under the given suppression category
// (empty means the analyzer's own name).
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	if category == "" {
		category = p.Analyzer.Name
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllowInfo is one //lint:allow directive as the JSON report carries it:
// where it is, what it suppresses, why, and how many diagnostics it
// absorbed in this run.
type AllowInfo struct {
	File          string   `json:"file"`
	Line          int      `json:"line"`
	Keys          []string `json:"keys"`
	Justification string   `json:"justification"`
	Used          int      `json:"used"`
}

// PkgResult is one package's analysis outcome.
type PkgResult struct {
	Pkg        *Package
	Kept       []Diagnostic
	Suppressed []Diagnostic
	Allows     []AllowInfo
}

// SuiteResult is a whole-suite run: per-package results in input order.
type SuiteResult struct {
	Pkgs []*PkgResult
}

// RunSuite runs the analyzers over each non-dependency package. A
// //lint:allow whose keys belong to an analyzer left out of analyzers
// absorbs nothing and is reported; lunavet always runs All().
func RunSuite(pkgs []*Package, analyzers []*Analyzer) (*SuiteResult, error) {
	res := &SuiteResult{}
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		pr, err := analyzePackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		res.Pkgs = append(res.Pkgs, pr)
	}
	return res, nil
}

// protect converts an analyzer panic into an error: a crashed analyzer
// must fail the run (exit 2 in lunavet), never pass it silently.
func protect(a *Analyzer, pkg *Package, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %s: analyzer panicked: %v", a.Name, pkg.ImportPath, r)
		}
	}()
	if e := fn(); e != nil {
		return fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, e)
	}
	return nil
}

// analyzePackage runs the analyzers over one package and applies the
// suppression directives. Directives that are malformed or absorbed
// nothing come back as kept diagnostics of the pseudo-analyzer "allow".
func analyzePackage(pkg *Package, analyzers []*Analyzer) (*PkgResult, error) {
	allows, bad := collectAllows(pkg.Fset, pkg.Files)
	var all []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo}
		if err := protect(a, pkg, func() error { return a.Run(pass) }); err != nil {
			return nil, err
		}
		all = append(all, pass.diags...)
	}
	pr := &PkgResult{Pkg: pkg, Kept: bad}
	for _, d := range all {
		if allows.covers(pkg.Fset.Position(d.Pos), d) {
			pr.Suppressed = append(pr.Suppressed, d)
		} else {
			pr.Kept = append(pr.Kept, d)
		}
	}
	for _, dir := range allows {
		if dir.Used == 0 {
			pr.Kept = append(pr.Kept, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "allow",
				Category: "allow",
				Message: fmt.Sprintf("//lint:allow %s absorbs no finding: delete the directive or fix its key",
					strings.Join(dir.Keys, ",")),
			})
		}
		pr.Allows = append(pr.Allows, dir.AllowInfo)
	}
	sortDiags(pkg.Fset, pr.Kept)
	sortDiags(pkg.Fset, pr.Suppressed)
	return pr, nil
}

func sortDiags(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// allowDirective is one parsed //lint:allow comment; Used counts the
// diagnostics it suppressed this run.
type allowDirective struct {
	AllowInfo
	pos token.Pos
}

// allowSet is a package's directives in source order.
type allowSet []*allowDirective

const allowPrefix = "//lint:allow"

// collectAllows scans every comment in the files for allow directives.
// Directives missing a justification are returned as diagnostics.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	var set allowSet
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowfoo — not ours
				}
				keys, justification := parseAllow(rest)
				if len(keys) == 0 || justification == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "allow",
						Category: "allow",
						Message:  "//lint:allow needs a key and a justification: //lint:allow <key> — <why this is safe>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				set = append(set, &allowDirective{
					AllowInfo: AllowInfo{File: pos.Filename, Line: pos.Line, Keys: keys, Justification: justification},
					pos:       c.Pos(),
				})
			}
		}
	}
	return set, bad
}

// parseAllow splits "wallclock, select — measuring wall time" into its
// keys and the justification following them (empty when absent). Keys are
// comma-separated; the justification is everything after the last key (an
// optional "—", "--" or ":" separator is tolerated and stripped).
func parseAllow(rest string) (keys []string, justification string) {
	fields := strings.Fields(rest)
	i := 0
	for ; i < len(fields); i++ {
		f := fields[i]
		if strings.Trim(f, "—-:") == "" {
			break // separator with no key before it: justification starts here
		}
		for _, part := range strings.Split(f, ",") {
			if p := strings.TrimRight(part, ":"); p != "" {
				keys = append(keys, p)
			}
		}
		if !strings.HasSuffix(f, ",") {
			i++
			break // a key without a trailing comma is the last one
		}
	}
	return keys, strings.TrimSpace(strings.TrimLeft(strings.Join(fields[i:], " "), "—-: \t"))
}

// covers reports whether a directive on the diagnostic's line or the line
// directly above names the diagnostic's analyzer or category, bumping the
// matching directive's usage count.
func (s allowSet) covers(pos token.Position, d Diagnostic) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, dir := range s {
			if dir.File != pos.Filename || dir.Line != line {
				continue
			}
			for _, k := range dir.Keys {
				if k == d.Analyzer || k == d.Category {
					dir.Used++
					return true
				}
			}
		}
	}
	return false
}

// scopeMatch reports whether a package import path falls under pattern.
// Patterns are path fragments matched on segment boundaries: "internal/sim"
// matches "lunasolar/internal/sim" and "lunasolar/internal/sim/runtime" but
// not "lunasolar/internal/simnet". A trailing '*' widens the last segment
// to a prefix: "internal/sim*" matches simnet too.
func scopeMatch(path, pattern string) bool {
	if strings.HasSuffix(pattern, "*") {
		stem := strings.TrimSuffix(pattern, "*")
		for i := 0; i+len(stem) <= len(path); i++ {
			if (i == 0 || path[i-1] == '/') && path[i:i+len(stem)] == stem {
				return true
			}
		}
		return false
	}
	if path == pattern || strings.HasPrefix(path, pattern+"/") {
		return true
	}
	if strings.HasSuffix(path, "/"+pattern) || strings.Contains(path, "/"+pattern+"/") {
		return true
	}
	return false
}

// inScope reports whether the package matches any of the patterns.
func inScope(path string, patterns []string) bool {
	for _, pat := range patterns {
		if scopeMatch(path, pat) {
			return true
		}
	}
	return false
}
