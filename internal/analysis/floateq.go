package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq reports == and != comparisons with floating-point operands in
// the statistics and experiment packages, where accumulated rounding makes
// exact equality a latent bug (a threshold computed two ways can differ in
// the last ulp and silently flip a table row). An operand is a float when
// its static type's underlying type is float32, float64 or an untyped
// float constant: literals, variables, fields, call results and named
// float types alike.
var FloatEq = &Analyzer{
	Name:     "floateq",
	Doc:      "no ==/!= on floats in stats/experiments; compare with a tolerance",
	Packages: []string{"internal/stats", "internal/experiments"},
	Run:      runFloatEq,
}

func runFloatEq(p *Pass) {
	isFloat := func(e ast.Expr) bool {
		b, ok := p.Info.TypeOf(e).Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isFloat(be.X) || isFloat(be.Y) {
				p.Reportf(be.Pos(),
					"%s on floating-point operands (%s %s %s): compare with a tolerance or annotate //optlint:allow floateq",
					be.Op, exprString(be.X), be.Op, exprString(be.Y))
			}
			return true
		})
	}
}
