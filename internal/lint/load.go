package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	DepOnly    bool // loaded only because a target imports it; never analyzed
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns (relative to dir) and
// returns them in `go list` order. It works fully offline: `go list
// -export` has the toolchain compile every dependency and hand back export
// data, which the stdlib gc importer then serves to go/types — the same
// mechanism `go vet` uses, without needing golang.org/x/tools.
//
// Only non-test files are loaded: the invariants lunavet enforces are
// about simulation code — tests legitimately use wall clocks, global rand
// and unordered iteration. Dependencies of the matched patterns load too,
// flagged DepOnly: diagnostics never target them.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard {
			continue
		}
		if p.Error != nil {
			// A pattern can legitimately match a directory with no
			// non-test Go files (the repo root holds only benchmarks);
			// anything else — a build error, a pattern that names no
			// package at all — is an error the caller must see.
			if len(p.GoFiles) == 0 && p.Dir != "" {
				continue
			}
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		targets = append(targets, p)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range targets {
		var files []*ast.File
		for _, gf := range p.GoFiles {
			name := gf
			if !filepath.IsAbs(name) {
				name = filepath.Join(p.Dir, gf)
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			DepOnly:    p.DepOnly,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			TypesInfo:  info,
		})
	}
	return pkgs, nil
}
