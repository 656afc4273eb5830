// Package load is the package loader of the soter-vet analysis driver: a
// minimal, offline replacement for golang.org/x/tools/go/packages built on
// two pieces the toolchain already provides — `go list -export` for build
// metadata and compiled export data, and go/importer's gc importer for
// reading that export data back as *types.Package.
//
// The loader shells out to `go list` exactly once, parses and type-checks
// the packages of this module from source (analyzers need syntax and
// positions for them), and resolves every other import — stdlib or vendored
// — through the export data the build cache already holds. A module package
// that is only a dependency of the matched ones is source-checked too,
// without being returned: read from export data, it would bring its own
// copy of every module package it imports, and a matched package seeing
// both copies fails to type-check. Test variants
// ("p [p.test]") and external test packages ("p_test [p.test]") are loaded
// from source too, so analyzers see test files (the eventkind analyzer's
// round-trip-corpus check depends on that).
package load

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
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package, ready for analysis.
type Package struct {
	// ImportPath is the path as `go list` reports it; test variants keep
	// their " [p.test]" suffix.
	ImportPath string
	// Name is the package name (test variants share the base name).
	Name string
	// Dir is the package's source directory.
	Dir string
	// ForTest is the import path of the package a test variant augments
	// (empty for ordinary packages).
	ForTest string
	// Files are the absolute paths of the parsed files, in build order.
	Files []string
	// Fset is the file set shared by every package of one Load call.
	Fset *token.FileSet
	// Syntax holds one parsed file per entry of Files.
	Syntax []*ast.File
	// Types and Info carry the full type-checking results.
	Types *types.Package
	Info  *types.Info
}

// Config controls a Load call.
type Config struct {
	// Dir is the working directory for `go list`; empty means the current
	// directory. Patterns are resolved relative to it.
	Dir string
	// Patterns are `go list` package patterns; empty means ["./..."].
	Patterns []string
	// Tests also loads test variants and external test packages of the
	// matched packages.
	Tests bool
}

// listPackage mirrors the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	Standard     bool
	DepOnly      bool
	ForTest      string
	GoFiles      []string
	XTestGoFiles []string
	ImportMap    map[string]string
	Module       *struct{ Main bool }
	Error        *listError
	DepsErrors   []*listError
}

type listError struct {
	Pos string
	Err string
}

// Load lists, parses and type-checks the packages matched by cfg. Any list,
// parse or type error fails the whole load: soter-vet refuses to reason
// about a tree it cannot fully see.
func Load(cfg Config) ([]*Package, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,ForTest,GoFiles,XTestGoFiles,ImportMap,Module,Error,DepsErrors"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}

	byPath := map[string]*listPackage{}
	var order []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		lp := p
		byPath[lp.ImportPath] = &lp
		order = append(order, &lp)
	}

	ld := &loader{
		fset:   token.NewFileSet(),
		byPath: byPath,
		memo:   map[string]*types.Package{},
		loaded: map[string]*Package{},
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", ld.exportLookup)

	var pkgs []*Package
	for _, p := range order {
		if p.Standard || p.DepOnly {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // generated test-main package: cache-resident synthetic source
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		for _, de := range p.DepsErrors {
			return nil, fmt.Errorf("%s: dependency error: %s", p.ImportPath, de.Err)
		}
		pkg, err := ld.fromSource(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// loader carries the shared state of one Load call.
type loader struct {
	fset   *token.FileSet
	byPath map[string]*listPackage
	memo   map[string]*types.Package // source-checked packages, by listed path
	loaded map[string]*Package
	gc     types.Importer
}

// exportLookup feeds the gc importer the export-data file `go list -export`
// recorded for the path.
func (ld *loader) exportLookup(path string) (io.ReadCloser, error) {
	p, ok := ld.byPath[path]
	if !ok || p.Export == "" {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(p.Export)
}

// fromSource parses and type-checks the listed package, memoized.
func (ld *loader) fromSource(p *listPackage) (*Package, error) {
	if pkg, ok := ld.loaded[p.ImportPath]; ok {
		return pkg, nil
	}
	files := p.GoFiles
	if len(files) == 0 {
		files = p.XTestGoFiles // external test packages list their files here
	}
	pkg := &Package{
		ImportPath: p.ImportPath,
		Name:       p.Name,
		Dir:        p.Dir,
		ForTest:    p.ForTest,
		Fset:       ld.fset,
	}
	for _, f := range files {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, f)
		}
		syn, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, path)
		pkg.Syntax = append(pkg.Syntax, syn)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &pkgImporter{ld: ld, importMap: p.ImportMap},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(p.ImportPath, ld.fset, pkg.Syntax, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type errors: %v", p.ImportPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	ld.loaded[p.ImportPath] = pkg
	ld.memo[p.ImportPath] = tpkg
	return pkg, nil
}

// importOf resolves one import path as seen from a package with the given
// import map: this module's packages and test variants from source (one
// *types.Package per path, and test-only symbols exist), compiled export
// data for everything else.
func (ld *loader) importOf(path string, importMap map[string]string) (*types.Package, error) {
	if mapped, ok := importMap[path]; ok {
		path = mapped
	}
	if tp, ok := ld.memo[path]; ok {
		return tp, nil
	}
	p, listed := ld.byPath[path]
	testVariant := strings.Contains(path, " [")
	if testVariant || (listed && p.Module != nil && p.Module.Main) {
		// A test variant's export data describes the base path, which would
		// collide with the ordinary package in the gc importer's cache; a
		// module package's export data would make the gc importer build its
		// own copies of the module packages it references.
		if !listed {
			return nil, fmt.Errorf("unknown test variant %q", path)
		}
		pkg, err := ld.fromSource(p)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	tp, err := ld.gc.Import(path)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	ld.memo[path] = tp
	return tp, nil
}

// pkgImporter is the per-package types.Importer: it carries the package's
// own import map so test-variant imports resolve the way the go tool
// resolved them at build time.
type pkgImporter struct {
	ld        *loader
	importMap map[string]string
}

func (pi *pkgImporter) Import(path string) (*types.Package, error) {
	return pi.ld.importOf(path, pi.importMap)
}
