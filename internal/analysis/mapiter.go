package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPackages are the engine packages whose behavior the
// differential / fuzz suites pin byte-for-byte to the reference model;
// any map-iteration-order dependence there is a latent nondeterminism bug.
var deterministicPackages = []string{
	"internal/sim",
	"internal/core",
	"internal/witness",
	"internal/paths",
	"internal/faults",
	"internal/jobs",
	"internal/workload",
	"internal/cluster",
}

// MapIter reports `range` statements over maps in the deterministic
// engine packages: any range target whose static type is a map, through
// named types, fields and call results alike. The canonical
// collect-keys-then-sort idiom — a loop whose body is exactly
// `keys = append(keys, k)` followed later in the same block by a call
// into package sort or slices on keys — is recognized and allowed; every
// other site needs an //optlint:allow mapiter directive with a
// justification (typically an order-independent reduction).
var MapIter = &Analyzer{
	Name:     "mapiter",
	Doc:      "no map iteration in deterministic packages unless keys are sorted first",
	Packages: deterministicPackages,
	Run:      runMapIter,
}

func runMapIter(p *Pass) {
	for _, f := range p.Files {
		checkStmtLists(f, func(list []ast.Stmt) {
			for i, st := range list {
				rs, ok := unwrapLabel(st).(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, isMap := p.Info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
					continue
				}
				if isCollectAndSort(p, rs, list[i+1:]) {
					continue
				}
				p.Reportf(rs.Pos(),
					"range over map %s in deterministic package %s: iteration order is randomized; collect and sort the keys, or annotate //optlint:allow mapiter with why order cannot matter",
					exprString(rs.X), p.PkgPath)
			}
		})
	}
}

// checkStmtLists invokes f on every statement list in the subtree: block
// bodies plus switch/select clause bodies.
func checkStmtLists(root ast.Node, f func([]ast.Stmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			f(n.List)
		case *ast.CaseClause:
			f(n.Body)
		case *ast.CommClause:
			f(n.Body)
		}
		return true
	})
}

func unwrapLabel(st ast.Stmt) ast.Stmt {
	for {
		ls, ok := st.(*ast.LabeledStmt)
		if !ok {
			return st
		}
		st = ls.Stmt
	}
}

// isCollectAndSort recognizes the allowed key-collection idiom: the range
// body is exactly `s = append(s, k)` (where k is the range key and the
// value is absent or blank), and a later statement in the same block
// passes s to a function of package sort or slices.
func isCollectAndSort(p *Pass, rs *ast.RangeStmt, rest []ast.Stmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if v, ok := rs.Value.(*ast.Ident); rs.Value != nil && (!ok || v.Name != "_") {
		return false
	}
	if rs.Body == nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if base, ok := call.Args[0].(*ast.Ident); !ok || base.Name != dst.Name {
		return false
	}
	if arg, ok := call.Args[1].(*ast.Ident); !ok || arg.Name != key.Name {
		return false
	}
	for _, st := range rest {
		es, ok := unwrapLabel(st).(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			continue
		}
		pn, ok := p.Info.Uses[pkg].(*types.PkgName)
		if !ok || (pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			continue
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && id.Name == dst.Name {
				return true
			}
		}
	}
	return false
}
