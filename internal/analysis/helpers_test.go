package analysis

import (
	"go/ast"
	"go/token"
)

// Lint type-checks one package's files and runs the given analyzers over
// it, applying the //optlint:allow suppression directives. The package
// must type-check (its module-internal imports resolved from nothing, so
// standalone callers lint self-contained or stdlib-only packages; the
// module walker in LintModule supplies cross-package types). Surviving
// diagnostics come back sorted by position.
func Lint(fset *token.FileSet, files []*ast.File, pkgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkg, info, err := checkPackage(fset, pkgPath, files, nil)
	if err != nil {
		return nil, err
	}
	return lintTyped(fset, files, pkgPath, pkg, info, analyzers), nil
}
