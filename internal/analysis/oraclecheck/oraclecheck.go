// Package oraclecheck enforces the repo's oracle discipline: reference
// implementations are selected by tests, never through the public API.
//
// core.Oracles holds the switches that route a fast path back to the
// reference twin it is checked against (the Disable* switches and
// ScalarKernels). They exist so that a test can compare the two bit for
// bit; a switch no test flips checks nothing, and a switch that users
// can reach is a public knob that exists only as an oracle.
// oraclecheck therefore requires:
//
//   - only _test.go files write a field of core.Oracles, whether through
//     a composite-literal element or an assignment (taking the field's
//     address counts as a write: flag.BoolVar writes through it);
//   - every field of core.Oracles is written by at least one _test.go
//     file, so each reference path keeps a test that selects it;
//   - neither the facade Config (the module root package) nor
//     stream.Config declares an exported oracle-named field.
//
// Reading a switch is allowed anywhere: the driver reads them.
//
// The analyzer is whole-program: a field's writes may sit in any
// package's tests.
package oraclecheck

import (
	"go/ast"
	"go/token"
	"strings"

	"lshcluster/internal/analysis"
)

// Name is the analyzer's name, as used in diagnostics.
const Name = "oraclecheck"

// Analyzer is the oraclecheck instance.
var Analyzer = &analysis.Analyzer{
	Name:         Name,
	Doc:          "core.Oracles fields are written only in _test.go files, each by at least one; public Configs carry no oracle switches",
	Run:          run,
	WholeProgram: true,
}

// CorePackage is the import-path suffix of the package declaring
// Oracles; StreamPackage that of the streaming clusterer's Config.
const (
	CorePackage   = "internal/core"
	StreamPackage = "internal/stream"
)

// isOracleField reports whether an exported field name is an oracle
// switch.
func isOracleField(name string) bool {
	return strings.HasPrefix(name, "Disable") || name == "ScalarKernels"
}

// write is one write of a core.Oracles field.
type write struct {
	pos   token.Pos
	field string
}

func run(pass *analysis.Pass) error {
	prog := pass.Prog
	core := findPackage(prog, CorePackage)
	if core == nil {
		// Fixture or tree without a core package: nothing to enforce.
		return nil
	}
	_, oracles := analysis.StructNamed(core, "Oracles")
	if oracles == nil {
		pass.Reportf(core.Files[0].Pos(),
			"%s declares no Oracles struct; oraclecheck cannot verify the oracle switches", core.Path)
		return nil
	}
	fields := make([]string, oracles.NumFields())
	for i := range fields {
		fields[i] = oracles.Field(i).Name()
	}

	tested := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			inTest := prog.IsTestFile(file.Pos())
			ast.Inspect(file, func(n ast.Node) bool {
				for _, w := range oracleWrites(pkg, n, fields) {
					if inTest {
						tested[w.field] = true
					} else {
						pass.Reportf(w.pos,
							"Oracles.%s is written outside a _test.go file; oracle switches select reference paths for tests only", w.field)
					}
				}
				return true
			})
		}
	}
	for i := 0; i < oracles.NumFields(); i++ {
		if f := oracles.Field(i); !tested[f.Name()] {
			pass.Reportf(f.Pos(),
				"oracle switch Oracles.%s is written by no _test.go file; no test selects its reference path", f.Name())
		}
	}

	if root := prog.Lookup(prog.ModulePath); root != nil {
		reportPublicOracles(pass, root, "facade Config")
	}
	if stream := findPackage(prog, StreamPackage); stream != nil {
		reportPublicOracles(pass, stream, "stream.Config")
	}
	return nil
}

// findPackage returns the source-checked package (not the external
// test variant) whose path ends in suffix, or nil.
func findPackage(prog *analysis.Program, suffix string) *analysis.Package {
	for _, pkg := range prog.Pkgs {
		if analysis.HasPathSuffix(pkg.Path, suffix) && !strings.HasSuffix(pkg.Path, "_test") {
			return pkg
		}
	}
	return nil
}

// oracleWrites returns the core.Oracles field writes n makes: the
// elements of an Oracles composite literal (keyed, or unkeyed in field
// order), the selectors assigned to, and the selectors whose address is
// taken.
func oracleWrites(pkg *analysis.Package, n ast.Node, fields []string) []write {
	var ws []write
	switch e := n.(type) {
	case *ast.CompositeLit:
		if t := pkg.Info.TypeOf(e); t == nil || !analysis.NamedType(t, CorePackage, "Oracles") {
			return nil
		}
		for i, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					ws = append(ws, write{kv.Pos(), id.Name})
				}
			} else if i < len(fields) {
				ws = append(ws, write{el.Pos(), fields[i]})
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range e.Lhs {
			if field, ok := oracleSelector(pkg, lhs); ok {
				ws = append(ws, write{lhs.Pos(), field})
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if field, ok := oracleSelector(pkg, e.X); ok {
				ws = append(ws, write{e.Pos(), field})
			}
		}
	}
	return ws
}

// oracleSelector reports whether x selects a field of a core.Oracles
// value (or pointer), and which.
func oracleSelector(pkg *analysis.Package, x ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil || !analysis.NamedType(t, CorePackage, "Oracles") {
		return "", false
	}
	return sel.Sel.Name, true
}

// reportPublicOracles flags every exported oracle-named field of pkg's
// Config struct.
func reportPublicOracles(pass *analysis.Pass, pkg *analysis.Package, label string) {
	_, st := analysis.StructNamed(pkg, "Config")
	if st == nil {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Exported() && isOracleField(f.Name()) {
			pass.Reportf(f.Pos(),
				"%s.%s is an oracle switch on a public config; reference paths are selected through core.Oracles, by tests only", label, f.Name())
		}
	}
}
