// Package lint is lunavet's analysis suite: six analyzers that enforce,
// at analysis time, the invariants the simulator otherwise only catches at
// run time — bit-identical virtual-time output (determinism, maporder,
// fluiddet), slab/packet Retain-Release pairing (slabown), allocation-free
// hot paths (hotalloc), and partition ownership of engine/pool/collector
// state (partown).
//
// The package deliberately depends only on the standard library. The types
// here mirror golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic)
// closely enough that porting onto the real framework is a mechanical
// change, but the repo builds and lints with nothing beyond the Go
// toolchain — no module downloads, no vendoring.
//
// Facts. An analyzer may declare a Collect hook that runs over every
// loaded package before any Run, exporting Facts — serializable
// (kind, name, position) records such as "this type is partition-owned".
// Run sees the whole suite's facts. In `go vet -vettool` mode the facts
// ride in the .vetx files vet already threads through the package graph.
//
// Suppressions. A diagnostic is suppressed by a comment on the offending
// line or the line directly above it:
//
//	//lint:allow <key>[,<key>...] — <justification>
//
// where <key> is the analyzer name or the diagnostic category (e.g.
// "wallclock"), and the justification is mandatory: an allow directive
// with no stated reason is itself reported. The driver counts suppressed
// diagnostics and publishes the full directive inventory (lunavet
// -suppressions) so CI can surface drift in the step summary.
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
// Collect is the optional fact hook (see the package comment).
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "determinism"
	Doc  string // one-paragraph description of what it enforces
	Run  func(*Pass) error

	// Collect runs over every loaded package (fixtures and dependencies
	// included) before any Run, exporting facts via Pass.ExportFact.
	Collect func(*Pass) error
}

// All returns the full lunavet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, MapOrder, SlabOwn, HotAlloc, PartOwn, FluidDet}
}

// ByName resolves a comma-separated analyzer list ("determinism,slabown").
// An empty spec means the whole suite.
func ByName(spec string) ([]*Analyzer, error) {
	if spec == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Diagnostic is one finding at a position. Category is the suppression
// key ("wallclock", "globalrand", ...); it defaults to the analyzer name.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Category string
	Message  string
}

// A Fact is one serializable cross-package record an analyzer's Collect
// hook exports, e.g. a marked type. Facts carry resolved file/line (not
// token.Pos) so they survive the trip through a .vetx file between
// `go vet` invocations.
type Fact struct {
	Analyzer string `json:"analyzer"`
	Kind     string `json:"kind"` // e.g. "partowned", "spanning"
	Name     string `json:"name"` // qualified name ("sim.Engine")
	Detail   string `json:"detail,omitempty"`
	Pkg      string `json:"pkg"`
	File     string `json:"file"`
	Line     int    `json:"line"`
}

// position converts the fact's resolved file/line into a token.Position
// usable on a suite-level Diagnostic.
func (f Fact) position() token.Position {
	return token.Position{Filename: f.File, Line: f.Line}
}

// A FactSet indexes the suite's collected facts.
type FactSet struct {
	facts []Fact
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet { return &FactSet{} }

// Add appends one fact.
func (fs *FactSet) Add(f Fact) { fs.facts = append(fs.facts, f) }

// All returns every fact in collection order.
func (fs *FactSet) All() []Fact { return fs.facts }

// Kind returns the facts of one analyzer and kind, in collection order.
func (fs *FactSet) Kind(analyzer, kind string) []Fact {
	var out []Fact
	for _, f := range fs.facts {
		if f.Analyzer == analyzer && f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// Has reports whether any fact matches (analyzer, kind, name).
func (fs *FactSet) Has(analyzer, kind, name string) bool {
	for _, f := range fs.facts {
		if f.Analyzer == analyzer && f.Kind == kind && f.Name == name {
			return true
		}
	}
	return false
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Facts     *FactSet // the whole suite's facts (read in Run, written in Collect)

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

// ExportFact records a fact at pos for the current analyzer, resolving
// the position immediately so the fact is self-contained.
func (p *Pass) ExportFact(kind, name, detail string, pos token.Pos) {
	position := p.Fset.Position(pos)
	p.Facts.Add(Fact{
		Analyzer: p.Analyzer.Name,
		Kind:     kind,
		Name:     name,
		Detail:   detail,
		Pkg:      p.Pkg.Path(),
		File:     position.Filename,
		Line:     position.Line,
	})
}

// AllowInfo is one //lint:allow directive for the suppression inventory:
// where it is, what it suppresses, why, and how many diagnostics it
// actually absorbed in this run (0 = candidate drift).
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

// SuiteResult is a whole-suite run: per-package results in input order,
// plus the collected facts.
type SuiteResult struct {
	Pkgs  []*PkgResult
	Facts *FactSet
}

// RunSuite executes the fact/run pipeline over the loaded packages: every
// analyzer's Collect over every package, then the analyzers over each
// non-dependency package with the shared fact set.
func RunSuite(pkgs []*Package, analyzers []*Analyzer) (*SuiteResult, error) {
	fs := NewFactSet()
	for _, pkg := range pkgs {
		if err := CollectPackage(pkg, analyzers, fs); err != nil {
			return nil, err
		}
	}
	res := &SuiteResult{Facts: fs}
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		pr, err := analyzePackage(pkg, analyzers, fs)
		if err != nil {
			return nil, err
		}
		res.Pkgs = append(res.Pkgs, pr)
	}
	return res, nil
}

// CollectPackage runs every analyzer's Collect hook over one package,
// adding to fs. Analyzer panics come back as errors so a broken Collect
// cannot silently produce an empty fact set.
func CollectPackage(pkg *Package, analyzers []*Analyzer, fs *FactSet) error {
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		pass := newPass(a, pkg, fs)
		if err := protect(a, pkg, func() error { return a.Collect(pass) }); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the given analyzers over one loaded package and returns the
// surviving diagnostics plus the ones an allow directive suppressed
// (reported separately so drivers can count them). Facts are collected
// from this package only — the per-package entry point the vettool path
// builds on (it seeds the fact set from dependencies' .vetx files via
// RunWithFacts). Malformed allow directives — no justification after the
// key list — come back as diagnostics of the pseudo-analyzer "allow".
func Run(pkg *Package, analyzers []*Analyzer) (kept, suppressed []Diagnostic, err error) {
	fs := NewFactSet()
	if err := CollectPackage(pkg, analyzers, fs); err != nil {
		return nil, nil, err
	}
	return RunWithFacts(pkg, analyzers, fs)
}

// RunWithFacts is Run with a caller-provided fact set (which must already
// include this package's own facts).
func RunWithFacts(pkg *Package, analyzers []*Analyzer, fs *FactSet) (kept, suppressed []Diagnostic, err error) {
	pr, err := analyzePackage(pkg, analyzers, fs)
	if err != nil {
		return nil, nil, err
	}
	return pr.Kept, pr.Suppressed, nil
}

func newPass(a *Analyzer, pkg *Package, fs *FactSet) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Facts:     fs,
	}
}

// protect converts an analyzer panic into an error: a crashed analyzer
// must fail the run (exit 2 in the drivers), never pass it silently.
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
// suppression directives.
func analyzePackage(pkg *Package, analyzers []*Analyzer, fs *FactSet) (*PkgResult, error) {
	allows, bad := collectAllows(pkg.Fset, pkg.Files)
	var all []Diagnostic
	for _, a := range analyzers {
		pass := newPass(a, pkg, fs)
		if err := protect(a, pkg, func() error { return a.Run(pass) }); err != nil {
			return nil, err
		}
		all = append(all, pass.diags...)
	}
	pr := &PkgResult{Pkg: pkg}
	for _, d := range all {
		if allows.covers(pkg.Fset.Position(d.Pos), d) {
			pr.Suppressed = append(pr.Suppressed, d)
		} else {
			pr.Kept = append(pr.Kept, d)
		}
	}
	pr.Kept = append(pr.Kept, bad...)
	sortDiags(pkg.Fset, pr.Kept)
	sortDiags(pkg.Fset, pr.Suppressed)
	pr.Allows = allows.inventory()
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

// allowDirective is one parsed //lint:allow comment. used counts the
// diagnostics it suppressed this run (pointer-shared across the indexes).
type allowDirective struct {
	keys          []string
	justification string
	file          string
	line          int
	used          *int
}

// allowSet indexes directives by file and line.
type allowSet map[string]map[int][]*allowDirective

const allowPrefix = "//lint:allow"

// collectAllows scans every comment in the files for allow directives.
// Directives missing a justification are returned as diagnostics.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	set := allowSet{}
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
				pos := fset.Position(c.Pos())
				if len(keys) == 0 || justification == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "allow",
						Category: "allow",
						Message:  "//lint:allow needs a key and a justification: //lint:allow <key> — <why this is safe>",
					})
					continue
				}
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = map[int][]*allowDirective{}
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], &allowDirective{
					keys:          keys,
					justification: justification,
					file:          pos.Filename,
					line:          pos.Line,
					used:          new(int),
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
	byLine := s[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, dir := range byLine[line] {
			for _, k := range dir.keys {
				if k == d.Analyzer || k == d.Category {
					*dir.used++
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

// inventory flattens the set into sorted AllowInfo records.
func (s allowSet) inventory() []AllowInfo {
	var files []string
	for f := range s {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []AllowInfo
	for _, f := range files {
		byLine := s[f]
		var lines []int
		for l := range byLine {
			lines = append(lines, l)
		}
		sort.Ints(lines)
		for _, l := range lines {
			for _, dir := range byLine[l] {
				out = append(out, AllowInfo{
					File:          dir.file,
					Line:          dir.line,
					Keys:          dir.keys,
					Justification: dir.justification,
					Used:          *dir.used,
				})
			}
		}
	}
	return out
}
