package analysis

import (
	"go/ast"
	"go/token"
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
// engine packages. The canonical collect-keys-then-sort idiom — a loop
// whose body is exactly `keys = append(keys, k)` followed later in the
// same block by a sort call on keys — is recognized and allowed; every
// other site needs an //optlint:allow mapiter directive with a
// justification (typically an order-independent reduction).
var MapIter = &Analyzer{
	Name:     "mapiter",
	Doc:      "no map iteration in deterministic packages unless keys are sorted first",
	Packages: deterministicPackages,
	Run:      runMapIter,
}

func runMapIter(p *Pass) {
	maps := collectMapNames(p.Files)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			locals := collectLocalMapNames(fn)
			checkStmtLists(fn.Body, func(list []ast.Stmt) {
				for i, st := range list {
					rs, ok := unwrapLabel(st).(*ast.RangeStmt)
					if !ok {
						continue
					}
					if !isMapExprByName(rs.X, locals, maps) {
						continue
					}
					if isCollectAndSort(rs, list[i+1:]) {
						continue
					}
					p.Reportf(rs.Pos(),
						"range over map %s in deterministic package %s: iteration order is randomized; collect and sort the keys, or annotate //optlint:allow mapiter with why order cannot matter",
						exprString(rs.X), p.PkgPath)
				}
			})
		}
	}
}

// mapNames is the package-level best-effort map-typed name sets: struct
// field names and package-level variable names whose declared type or
// initializer is a map.
type mapNames struct {
	fields  map[string]bool
	pkgVars map[string]bool
}

// collectMapNames scans the package for struct fields and package-level
// vars of map type. Matching is by name only — purely syntactic — which
// is precise enough in this repo and errs toward reporting.
func collectMapNames(files []*ast.File) *mapNames {
	m := &mapNames{fields: map[string]bool{}, pkgVars: map[string]bool{}}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				if !isMapTypeExpr(fld.Type) {
					continue
				}
				for _, name := range fld.Names {
					m.fields[name.Name] = true
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				isMap := vs.Type != nil && isMapTypeExpr(vs.Type)
				for i, name := range vs.Names {
					if isMap || (i < len(vs.Values) && isMapValueExpr(vs.Values[i])) {
						m.pkgVars[name.Name] = true
					}
				}
			}
		}
	}
	return m
}

// collectLocalMapNames gathers names declared with a map type inside fn:
// parameters, results, receivers, := definitions from make(map...) or map
// literals, and var declarations.
func collectLocalMapNames(fn *ast.FuncDecl) map[string]bool {
	locals := map[string]bool{}
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			if !isMapTypeExpr(fld.Type) {
				continue
			}
			for _, name := range fld.Names {
				locals[name.Name] = true
			}
		}
	}
	addFieldList(fn.Recv)
	addFieldList(fn.Type.Params)
	addFieldList(fn.Type.Results)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if ok && isMapValueExpr(n.Rhs[i]) {
					locals[id.Name] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if (vs.Type != nil && isMapTypeExpr(vs.Type)) ||
						(i < len(vs.Values) && isMapValueExpr(vs.Values[i])) {
						locals[name.Name] = true
					}
				}
			}
		}
		return true
	})
	return locals
}

// isMapTypeExpr reports whether the type expression is literally a map
// type (pointers and parens unwrapped).
func isMapTypeExpr(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.MapType:
		return true
	case *ast.ParenExpr:
		return isMapTypeExpr(t.X)
	}
	return false
}

// isMapValueExpr reports whether the value expression evidently produces
// a map: make(map[...]...) or a map composite literal.
func isMapValueExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CallExpr:
		id, ok := v.Fun.(*ast.Ident)
		return ok && id.Name == "make" && len(v.Args) > 0 && isMapTypeExpr(v.Args[0])
	case *ast.CompositeLit:
		return v.Type != nil && isMapTypeExpr(v.Type)
	}
	return false
}

// isMapExprByName resolves a range target against the local and
// package-level map name sets.
func isMapExprByName(e ast.Expr, locals map[string]bool, m *mapNames) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return locals[x.Name] || m.pkgVars[x.Name]
	case *ast.SelectorExpr:
		return m.fields[x.Sel.Name]
	case *ast.ParenExpr:
		return isMapExprByName(x.X, locals, m)
	case *ast.CompositeLit:
		return x.Type != nil && isMapTypeExpr(x.Type)
	}
	return false
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
// sorts s via the sort or slices package.
func isCollectAndSort(rs *ast.RangeStmt, rest []ast.Stmt) bool {
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
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
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
