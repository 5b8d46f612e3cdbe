// Package kernelcheck reports hand-rolled hot-loop distance work in the
// packages that are supposed to route it through internal/kernel.
//
// The repo's kernel discipline: inner loops that accumulate floating
// point (squared distance, dot products) or count categorical
// mismatches live in internal/kernel, in two forms — an unrolled kernel
// and a scalar reference — selected by core.Oracles.ScalarKernels. A
// new fast path that hand-rolls such a loop in kmodes/kmeans/simhash/
// dataset/stream silently bypasses both the kernel and its oracle, so
// this analyzer flags the two recognisable loop shapes:
//
//   - float accumulation: a `+=`/`-=` on a float alongside indexed
//     float loads in the same loop body;
//   - categorical mismatch counting: `if a[i] != b[i] { n++ }`.
//
// Loops that are deliberately scalar (masked variants whose shape the
// kernels cannot express, centroid accumulation that is not a distance)
// carry the escape hatch:
//
//	//lshvet:ignore kernelcheck <why this loop stays scalar>
//
// on the loop, the line above it, or the enclosing function
// declaration.
package kernelcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"lshcluster/internal/analysis"
)

// Name is the analyzer's name, as used in diagnostics and
// //lshvet:ignore annotations.
const Name = "kernelcheck"

// Analyzer is the kernelcheck instance.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "flags hand-rolled float-accumulation and mismatch-count inner loops that bypass internal/kernel",
	Run:  run,
}

// GovernedPackages lists the import-path suffixes the kernel discipline
// applies to. internal/kernel itself is exempt: it is where the loops
// are supposed to live.
var GovernedPackages = []string{
	"internal/kmodes",
	"internal/kmeans",
	"internal/simhash",
	"internal/dataset",
	"internal/stream",
}

func governed(path string) bool {
	for _, s := range GovernedPackages {
		if analysis.HasPathSuffix(path, s) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !governed(pass.Pkg.Path) {
		return nil
	}
	ig := analysis.NewIgnorer(pass.Pkg, pass.Prog.Fset, Name, pass.Report)
	analysis.WalkFuncs(pass.Pkg, func(file *ast.File, decl *ast.FuncDecl) {
		if pass.Prog.IsTestFile(decl.Pos()) {
			// Tests hand-roll reference loops on purpose.
			return
		}
		checkFunc(pass, ig, decl)
	})
	return nil
}

func checkFunc(pass *analysis.Pass, ig *analysis.Ignorer, decl *ast.FuncDecl) {
	anchors := analysis.FuncAnchors(decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		body := loopBody(n)
		if body == nil {
			return true
		}
		kind := classify(pass, body)
		if kind == "" {
			return true
		}
		if !ig.Ignored(Name, n.Pos(), anchors...) {
			pass.Reportf(n.Pos(),
				"hand-rolled %s loop bypasses internal/kernel; call a kernel (keeping its scalar twin as the ScalarKernels oracle) or annotate the loop `%s %s <reason>`",
				kind, analysis.IgnorePrefix, Name)
		}
		return true
	})
}

func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// classify inspects the loop's direct region — its body minus any
// nested loops, which are classified on their own — and names the
// kernel-shaped pattern it finds, or returns "".
func classify(pass *analysis.Pass, body *ast.BlockStmt) string {
	var floatAccum, floatIndex, mismatchCount bool
	walkDirect(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if (s.Tok == token.ADD_ASSIGN || s.Tok == token.SUB_ASSIGN) &&
				len(s.Lhs) == 1 && isFloat(pass, s.Lhs[0]) {
				floatAccum = true
			}
		case *ast.IndexExpr:
			if isFloat(pass, s) {
				floatIndex = true
			}
		case *ast.IfStmt:
			if condComparesIndexed(s.Cond) && incrementsCounter(pass, s.Body) {
				mismatchCount = true
			}
		}
	})
	switch {
	case mismatchCount:
		return "categorical mismatch-count"
	case floatAccum && floatIndex:
		return "float accumulation"
	}
	return ""
}

// walkDirect visits the subtree of body, stopping at nested for/range
// loops (their bodies belong to the nested loop's own classification).
func walkDirect(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case nil:
			return false
		}
		fn(n)
		return true
	})
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// condComparesIndexed reports whether the condition contains a !=
// comparison with an indexed operand — the mismatch-count shape.
func condComparesIndexed(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.NEQ {
			if hasIndexExpr(b.X) || hasIndexExpr(b.Y) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func hasIndexExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// incrementsCounter reports whether the block increments an integer
// (n++ or n += 1) — the counting half of the mismatch shape.
func incrementsCounter(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IncDecStmt:
			if s.Tok == token.INC && isInteger(pass, s.X) {
				found = true
			}
		case *ast.AssignStmt:
			if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isInteger(pass, s.Lhs[0]) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isInteger(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.Pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
