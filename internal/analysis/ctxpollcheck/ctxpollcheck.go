// Package ctxpollcheck enforces the cancellation discipline on
// driver-reachable per-item loops: a loop that performs per-item work —
// shortlist queries, distance evaluations, index inserts, signing —
// must poll for cancellation inside the loop, not merely between
// passes. This is the static form of the "Context was only polled
// between passes" bug fixed in PR 2: on 100k-item workloads a single
// unpolled pass holds cancellation hostage for seconds to minutes.
//
// A loop is per-item work when its body (including function literals it
// spawns) calls one of the WorkMarkers. It satisfies the discipline
// when the same subtree contains a poll: a call to a function named
// ctxErr, ctx.Err()/ctx.Done() on a context.Context, or a stop()
// callback. Functions named like a work marker are exempt as a whole —
// they are the per-item work unit itself (bestOf, Candidates, ...),
// bounded by shortlist or cluster count and polled by their callers.
//
// Loops that are genuinely bounded by something small (k seeds, a
// fixed-size block) carry the escape hatch:
//
//	//lshvet:ignore ctxpollcheck <why this loop needs no poll>
package ctxpollcheck

import (
	"go/ast"

	"lshcluster/internal/analysis"
)

// Name is the analyzer's name, as used in diagnostics and
// //lshvet:ignore annotations.
const Name = "ctxpollcheck"

// Analyzer is the ctxpollcheck instance.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "per-item loops reachable from the clustering driver must poll Options.Context",
	Run:  run,
}

// GovernedPackages lists the import-path suffixes whose loops the
// discipline covers: the driver, the index and the streaming engine.
var GovernedPackages = []string{
	"internal/core",
	"internal/lsh",
	"internal/stream",
}

// WorkMarkers names the calls that make a loop "per-item work". A
// function whose own name is in this set is the work unit itself and is
// exempt (its callers poll).
var WorkMarkers = map[string]bool{
	// shortlist queries
	"Candidates": true, "CandidatesBlock": true, "CandidatesBatch": true,
	"Probe": true,
	// distance evaluation
	"Dissimilarity": true, "BoundedDissimilarity": true,
	"bestOf": true, "bestExact": true, "bestOfLowestIndex": true,
	"fullScanRange": true, "dist": true,
	// indexing and signing
	"File": true, "sign": true,
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
			return
		}
		if WorkMarkers[decl.Name.Name] {
			// The work unit itself: its loops are bounded by the
			// shortlist / cluster count and its callers poll.
			return
		}
		checkFunc(pass, ig, decl)
	})
	return nil
}

func checkFunc(pass *analysis.Pass, ig *analysis.Ignorer, decl *ast.FuncDecl) {
	anchors := analysis.FuncAnchors(decl)
	var flagged []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		// A loop nested inside an already-flagged loop is covered by
		// the outer finding.
		for _, f := range flagged {
			if n.Pos() >= f.Pos() && n.End() <= f.End() {
				return true
			}
		}
		if !callsWork(n) || polls(pass, n) {
			return true
		}
		flagged = append(flagged, n)
		if !ig.Ignored(Name, n.Pos(), anchors...) {
			pass.Reportf(n.Pos(),
				"per-item loop performs driver work without polling for cancellation; poll Options.Context inside the loop (ctxErr/ctx.Err every few hundred items) or annotate it `%s %s <reason>`",
				analysis.IgnorePrefix, Name)
		}
		return true
	})
}

// callsWork reports whether the subtree calls a work marker.
func callsWork(loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if WorkMarkers[calleeName(call)] {
			found = true
		}
		return !found
	})
	return found
}

// polls reports whether the subtree contains a cancellation poll.
func polls(pass *analysis.Pass, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "ctxErr" || fun.Name == "stop" {
				found = true
			}
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Err", "Done":
				// Only on a context.Context receiver: wg.Done() and
				// friends are not polls.
				if t := pass.Pkg.Info.TypeOf(fun.X); t != nil && analysis.NamedType(t, "context", "Context") {
					found = true
				}
			case "stop":
				found = true
			}
		}
		return !found
	})
	return found
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
