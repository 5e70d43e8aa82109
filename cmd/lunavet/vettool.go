package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"lunasolar/internal/lint"
)

// vetConfig mirrors the JSON config `go vet` hands a -vettool per package
// (the unit-checker protocol from golang.org/x/tools/go/analysis/unitchecker,
// reimplemented here on the standard library). PackageVetx maps each
// dependency's import path to the facts file its own lunavet invocation
// wrote; VetxOutput is where this invocation must leave this package's
// facts for its importers.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVettool analyzes one package from a `go vet` unit-checker config.
//
// Facts ride the .vetx files as JSON []lint.Fact: dependencies' facts are
// read from PackageVetx before the checks run, and this package's own
// facts are written to VetxOutput — so a partition-owned type marked in
// internal/sim is visible when partown analyzes ebs. VetxOnly still
// parses, type-checks and collects (an upstream package whose facts
// cannot be extracted must fail the build, not silently export nothing);
// only the diagnostic pass is skipped.
func runVettool(cfgPath string, analyzers []*lint.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lunavet:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "lunavet: parsing %s: %v\n", cfgPath, err)
		return 2
	}

	// Tests legitimately use wall clocks, global rand and unordered maps:
	// analyze only the non-test files of each package variant.
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		// Nothing to collect from, but the driver still requires the facts
		// file to exist.
		if cfg.VetxOutput != "" {
			if err := writeVetx(cfg.VetxOutput, nil); err != nil {
				fmt.Fprintln(os.Stderr, "lunavet:", err)
				return 2
			}
		}
		return 0
	}

	fset := token.NewFileSet()
	var asts []*ast.File
	for _, f := range files {
		a, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "lunavet:", err)
			return 2
		}
		asts = append(asts, a)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	importPath := strings.TrimSuffix(strings.Fields(cfg.ImportPath)[0], "_test")
	tpkg, err := conf.Check(importPath, fset, asts, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "lunavet: type-checking %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	pkg := &lint.Package{
		ImportPath: importPath,
		Dir:        cfg.Dir,
		Fset:       fset,
		Files:      asts,
		Types:      tpkg,
		TypesInfo:  info,
	}

	// Seed the fact set from every dependency's vetx, in sorted order so
	// the merged set is deterministic, then collect this package's facts.
	fs := lint.NewFactSet()
	var deps []string
	for dep := range cfg.PackageVetx {
		deps = append(deps, dep)
	}
	sort.Strings(deps)
	for _, dep := range deps {
		if err := readVetx(cfg.PackageVetx[dep], fs); err != nil {
			fmt.Fprintf(os.Stderr, "lunavet: facts of %s: %v\n", dep, err)
			return 2
		}
	}
	if err := lint.CollectPackage(pkg, analyzers, fs); err != nil {
		fmt.Fprintln(os.Stderr, "lunavet:", err)
		return 2
	}
	if cfg.VetxOutput != "" {
		var own []lint.Fact
		for _, f := range fs.All() {
			if f.Pkg == importPath {
				own = append(own, f)
			}
		}
		if err := writeVetx(cfg.VetxOutput, own); err != nil {
			fmt.Fprintln(os.Stderr, "lunavet:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	kept, _, err := lint.RunWithFacts(pkg, analyzers, fs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lunavet:", err)
		return 2
	}
	for _, d := range kept {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
	}
	if len(kept) > 0 {
		return 1
	}
	return 0
}

// writeVetx serializes facts as JSON. An empty set writes "[]", never an
// empty file, so readers can distinguish "no facts" from a crashed writer.
func writeVetx(path string, facts []lint.Fact) error {
	if facts == nil {
		facts = []lint.Fact{}
	}
	data, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readVetx merges one dependency's facts file into fs. A zero-length file
// is tolerated (an older lunavet wrote empty placeholders); anything else
// must be valid fact JSON.
func readVetx(path string, fs *lint.FactSet) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	var facts []lint.Fact
	if err := json.Unmarshal(data, &facts); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, f := range facts {
		fs.Add(f)
	}
	return nil
}
