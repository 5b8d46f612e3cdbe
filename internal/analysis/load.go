package analysis

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
	"sort"
	"strings"
)

// Package is one module package loaded from source: its syntax
// (including in-package _test.go files) and its type information.
// External test packages (package foo_test) are loaded as their own
// Package whose Path carries the "_test" suffix.
type Package struct {
	// Path is the import path ("modpath/internal/lsh"; external test
	// packages get "modpath/internal/lsh_test").
	Path string
	// Name is the package name from the source.
	Name string
	// Dir is the absolute directory.
	Dir string
	// Files holds the parsed syntax, with comments; in-package test
	// files are included. Order follows the go list file order.
	Files []*ast.File
	// Pkg and Info are the type-checked package and its use/def maps.
	Pkg  *types.Package
	Info *types.Info
}

// Program is a loaded module slice: the packages matched by the load
// patterns, type-checked against export data for everything else.
type Program struct {
	Fset *token.FileSet
	// Pkgs is sorted by Path.
	Pkgs []*Package
	// ModulePath and ModuleDir identify the containing module.
	ModulePath string
	ModuleDir  string
}

// Lookup returns the package with the given import path, or nil.
func (p *Program) Lookup(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Program) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct {
		Path string
		Dir  string
	}
	Error *struct {
		Err string
	}
}

func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []listPackage
	dec := json.NewDecoder(out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("go list %s: decoding output: %v", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return pkgs, nil
}

// Load parses and type-checks the module packages matched by patterns
// (relative to dir, e.g. "./..."). Imports — standard library and
// module-internal alike — are resolved from compiler export data via
// `go list -export`, so only the analyzed packages themselves are
// type-checked from source. External test packages resolve imports
// from the test variants the go tool builds for them (so export_test.go
// helpers resolve; see testImporter).
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	roots, err := goList(dir, append([]string{"-json=ImportPath,Name,Dir,Module,GoFiles,TestGoFiles,XTestGoFiles,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v in %s", patterns, dir)
	}
	for _, p := range roots {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
	}
	// Export data for every dependency, including test-only ones
	// (testing, etc.) and the test variants ("pkg [x.test]") that only
	// external test packages import.
	deps, err := goList(dir, append([]string{"-deps", "-test", "-export", "-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	prog := &Program{Fset: token.NewFileSet()}
	if roots[0].Module != nil {
		prog.ModulePath = roots[0].Module.Path
		prog.ModuleDir = roots[0].Module.Dir
	}

	imp := importer.ForCompiler(prog.Fset, "gc", lookupFrom(exports, ""))

	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	check := func(imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, prog.Fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		return pkg, info, nil
	}

	for _, lp := range roots {
		// The package proper, augmented with its in-package test files:
		// analyzers reason about tests (oraclecheck requires oracle
		// fields to be exercised by one), so the test variant is the
		// source of truth for the package.
		files, err := parse(lp.Dir, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", lp.ImportPath, err)
		}
		if len(files) == 0 {
			continue
		}
		tpkg, info, err := check(imp, lp.ImportPath, files)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
		}
		pkg := &Package{
			Path:  lp.ImportPath,
			Name:  lp.Name,
			Dir:   lp.Dir,
			Files: files,
			Pkg:   tpkg,
			Info:  info,
		}
		prog.Pkgs = append(prog.Pkgs, pkg)

		if len(lp.XTestGoFiles) > 0 {
			xfiles, err := parse(lp.Dir, lp.XTestGoFiles)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing %s external tests: %v", lp.ImportPath, err)
			}
			xpkg, xinfo, err := check(testImporter(prog.Fset, exports, lp.ImportPath), lp.ImportPath+"_test", xfiles)
			if err != nil {
				return nil, fmt.Errorf("analysis: type-checking %s external tests: %v", lp.ImportPath, err)
			}
			prog.Pkgs = append(prog.Pkgs, &Package{
				Path:  lp.ImportPath + "_test",
				Name:  lp.Name + "_test",
				Dir:   lp.Dir,
				Files: xfiles,
				Pkg:   xpkg,
				Info:  xinfo,
			})
		}
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// testImporter resolves the imports of the external test package of
// pkg the way the go tool builds it: from the "P [pkg.test]" variant
// of each import P when there is one, else from P's plain export data.
// The package under test's variant includes its in-package test files
// (so export_test.go helpers resolve), and every package between the
// external test and the package under test is rebuilt against that
// variant, so all of them must come from the same importer for type
// identities to agree. Each external test package therefore gets an
// importer of its own.
func testImporter(fset *token.FileSet, exports map[string]string, pkg string) types.Importer {
	return importer.ForCompiler(fset, "gc", lookupFrom(exports, " ["+pkg+".test]"))
}

// lookupFrom opens the export data of an import path, preferring the
// entry for path+variant when variant is non-empty.
func lookupFrom(exports map[string]string, variant string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path+variant]
		if !ok {
			file, ok = exports[path]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}
