package golint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/golint/load"
)

// Fuel completeness.
//
// PR 3's deterministic timeouts only cover a search loop if that loop
// spends from the fuel meter; an uncharged loop can hang the solver
// with no deadline, silently reopening the class of bug the hang-defect
// catalogue exists to surface. This pass proves the charging invariant
// at lint time: in the fuel-scoped packages, every loop whose bound is
// not syntactically evident must reach (*fuel.Meter).Spend or Drain —
// in its own body, or transitively through the functions the body
// calls, resolved over the program call graph (interface calls expand
// to every declared implementation).
//
// "Syntactically evident" bounds are: a range over anything that is not
// a channel or an iterator function (slices, arrays, maps, strings,
// integers all have finite iteration), and a three-clause
// for-init-cond-post loop (the repository's counted-loop idiom).
// Everything else — `for {}`, `for cond {}`, ranges over channels or
// func iterators — is potentially unbounded and must charge.
//
// Loops that are genuinely bounded for reasons the syntax cannot show
// (draining a finite heap, walking a strictly shrinking structure)
// carry an explicit `//golint:allow fuel-charge — <reason>` directive;
// the reason is load-bearing, and a directive that stops matching a
// finding is itself reported as stale.

// fuelScopeDirs are the module-relative package prefixes the fuel rule
// applies to: everything that runs inside a solve.
var fuelScopeDirs = []string{
	"internal/solver", "internal/rat", "internal/regex", "internal/eval",
}

// lintFuel reports potentially unbounded loops in fuel-scoped packages
// that cannot reach a fuel charge.
func lintFuel(prog *load.Program, cg *load.CallGraph, pkgs []*load.Package) []Finding {
	spenders := cg.Closure(func(fn *types.Func, decl *load.FuncDecl) bool {
		return containsFuelCharge(prog, decl)
	})

	var out []Finding
	for _, pkg := range pkgs {
		if !inFuelScope(prog.Module, pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					kind, unbounded := loopUnbounded(pkg, n)
					if !unbounded {
						return true
					}
					if loopCharges(prog, cg, pkg, n, spenders) {
						return true
					}
					out = append(out, Finding{
						File: file.Name, Line: prog.Position(n.Pos()).Line,
						Rule: RuleFuel,
						Message: kind + " never reaches fuel.Meter.Spend: the deterministic timeout cannot bound it" +
							" (charge fuel in the loop, or annotate '//golint:allow fuel-charge — <reason>')",
					})
					return true
				})
			}
		}
	}
	return out
}

func inFuelScope(module, pkgPath string) bool {
	rel := strings.TrimPrefix(pkgPath, module+"/")
	for _, dir := range fuelScopeDirs {
		if rel == dir || strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

// loopUnbounded classifies a loop statement. It returns a description
// of the unbounded shape and whether the loop needs a fuel charge.
func loopUnbounded(pkg *load.Package, n ast.Node) (kind string, unbounded bool) {
	switch s := n.(type) {
	case *ast.ForStmt:
		if s.Cond == nil {
			return "unconditional for-loop", true
		}
		if s.Init == nil || s.Post == nil {
			return "condition-only for-loop", true
		}
		return "", false
	case *ast.RangeStmt:
		tv, ok := pkg.Info.Types[s.X]
		if !ok || tv.Type == nil {
			return "", false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Chan:
			return "range over a channel", true
		case *types.Signature:
			return "range over an iterator function", true
		}
		return "", false
	}
	return "", false
}

// loopCharges reports whether the loop's condition, post statement, or
// body reaches a fuel charge: a direct Spend/Drain call, or a call to
// any function from whose body a charge is reachable.
func loopCharges(prog *load.Program, cg *load.CallGraph, pkg *load.Package, loop ast.Node, spenders map[*types.Func]bool) bool {
	var regions []ast.Node
	switch s := loop.(type) {
	case *ast.ForStmt:
		if s.Cond != nil {
			regions = append(regions, s.Cond)
		}
		if s.Post != nil {
			regions = append(regions, s.Post)
		}
		regions = append(regions, s.Body)
	case *ast.RangeStmt:
		regions = append(regions, s.Body)
	}
	charged := false
	for _, region := range regions {
		ast.Inspect(region, func(n ast.Node) bool {
			if charged {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := load.Callee(pkg, call)
			if callee == nil {
				return true
			}
			if isFuelCharge(prog, callee) || spenders[callee] {
				charged = true
				return false
			}
			for _, impl := range cg.Implementations(callee) {
				if spenders[impl] {
					charged = true
					return false
				}
			}
			return true
		})
	}
	return charged
}

// isFuelCharge reports whether the callee is (*fuel.Meter).Spend or
// (*fuel.Meter).Drain.
func isFuelCharge(prog *load.Program, callee *types.Func) bool {
	if callee.Pkg() == nil || callee.Pkg().Path() != prog.Module+"/internal/fuel" {
		return false
	}
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return callee.Name() == "Spend" || callee.Name() == "Drain"
}

// containsFuelCharge reports whether a declared function's body makes a
// direct fuel charge.
func containsFuelCharge(prog *load.Program, decl *load.FuncDecl) bool {
	found := false
	ast.Inspect(decl.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := load.Callee(decl.Pkg, call); callee != nil && isFuelCharge(prog, callee) {
			found = true
			return false
		}
		return true
	})
	return found
}
