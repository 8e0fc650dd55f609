// Package analysis is a small, zero-dependency static-analysis framework
// (stdlib go/ast + go/parser + go/token + go/types only) carrying the
// repo-specific analyzers that mechanically enforce the simulator's
// invariants. Every linted package is type-checked first (see
// typecheck.go), and analyzers ask the Pass's types.Info whether an
// expression is a map or a float and which package a call resolves to;
// none infers a type or a package from a name. Flow-aware analyzers
// additionally walk an intra-function control-flow approximation (see
// flow.go):
//
//   - mapiter: no ranging over maps in the deterministic packages
//     (deterministicPackages: internal/sim, internal/core,
//     internal/witness, internal/paths, internal/faults, internal/jobs,
//     internal/workload, internal/cluster) unless the keys are collected
//     and sorted first — the paper's guarantees are proved for a
//     deterministic contention-resolution machine, and map iteration
//     order would silently break the byte-for-byte engine == reference
//     pinning and the content-addressed job keys.
//   - globalrand: no math/rand, time.Now, or os.Getenv in the
//     deterministic packages; all randomness flows through internal/rng.
//   - hotpath: no make / new / map or slice literals / capturing closures
//     / non-self appends inside functions marked //optlint:hotpath — the
//     engine step path pinned to 0 allocs/op by TestSteadyStateAllocFree.
//   - probeguard: every call through a telemetry Probe field is dominated
//     by a nil check, preserving the nil-probe zero-cost contract.
//   - floateq: no == or != on floating-point operands in internal/stats
//     and internal/experiments.
//   - docs: every exported symbol has a doc comment and every package has
//     a package comment (migrated from the original lint_test.go).
//   - guardedby: struct fields annotated //optlint:guardedby mu may only
//     be accessed while a lock named mu is held on every path (defer
//     unlocks and //optlint:locked helper contracts included).
//   - dettaint: values derived from nondeterministic sources (time,
//     os.Getenv, math/rand, multi-case selects) must not reach the
//     canonical encoder or any //optlint:sink function.
//   - errsink: no discarded error results from Close/Sync/Flush/Write
//     (and fmt.Fprint* to abstract writers) in the store and serving
//     layers.
//
// Findings are suppressed with //optlint:allow directives (see suppress.go):
// a directive above or on the offending line scopes to that line; a
// directive before the package clause scopes to the whole file. Directives
// naming an unknown analyzer are themselves diagnostics, so suppressions
// cannot silently outlive the checks they disable.
//
// Run the suite with `go run ./cmd/optlint ./...`; the repo-wide
// TestOptlintClean gate keeps `go test ./...` enforcing it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic as "file:line:col: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package: the parsed files, the
// type-checked package and its resolution maps, plus reporting plumbing.
// PkgPath carries the import path so package-scoped rules can be
// expressed by the runner.
type Pass struct {
	Fset    *token.FileSet
	Files   []*ast.File
	PkgName string
	PkgPath string

	// Pkg is the type-checked package and Info its resolution maps
	// (Types, Defs, Uses, Selections, Implicits, Scopes — all filled).
	Pkg  *types.Package
	Info *types.Info

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check. Packages restricts where it runs: a list
// of import-path suffixes (e.g. "internal/sim"); empty means every
// package.
type Analyzer struct {
	Name     string
	Doc      string
	Packages []string
	Run      func(*Pass)
}

// appliesTo reports whether the analyzer runs on the given import path.
func (a *Analyzer) appliesTo(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, suffix := range a.Packages {
		if pkgPath == suffix || hasPathSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}

func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix) && path[len(path)-len(suffix):] == suffix &&
		path[len(path)-len(suffix)-1] == '/'
}

// All returns the full registered analyzer suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter, GlobalRand, HotPath, ProbeGuard, FloatEq, Docs,
		GuardedBy, DetTaint, ErrSink,
	}
}

// lintTyped runs the given analyzers over one type-checked package,
// applies the //optlint:allow suppression directives, checks directives
// for unknown analyzer names, and returns the surviving diagnostics
// sorted by position. The known-name check always uses the full registry
// from All, so a fixture run of a single analyzer still accepts
// suppressions naming the others.
func lintTyped(fset *token.FileSet, files []*ast.File, pkgPath string, pkg *types.Package, info *types.Info, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := collectDirectives(fset, files, known, report)

	pkgName := ""
	if len(files) > 0 {
		pkgName = files[0].Name.Name
	}
	for _, a := range analyzers {
		if !a.appliesTo(pkgPath) {
			continue
		}
		pass := &Pass{
			Fset:     fset,
			Files:    files,
			PkgName:  pkgName,
			PkgPath:  pkgPath,
			Pkg:      pkg,
			Info:     info,
			analyzer: a,
			report:   report,
		}
		a.Run(pass)
	}

	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != directiveAnalyzerName && sup.suppressed(d) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// exprString renders the identifier / selector chains the analyzers care
// about ("e.probe", "cfg.Probe", "m"); other expressions collapse to a
// placeholder, which is fine for message text and receiver matching.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "<expr>"
}

// termTypes lists the underlying types of the union terms a type
// parameter's constraint names, through embedded constraints: the types
// the parameter can stand for. It is nil for any other type, whose
// Underlying answers instead, and for a constraint with no terms (any,
// comparable, methods only), which names no type.
func termTypes(t types.Type) []types.Type {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return nil
	}
	var out []types.Type
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Interface:
			for i := 0; i < u.NumEmbeddeds(); i++ {
				walk(u.EmbeddedType(i))
			}
		case *types.Union:
			for i := 0; i < u.Len(); i++ {
				walk(u.Term(i).Type())
			}
		default:
			out = append(out, u)
		}
	}
	walk(tp.Constraint())
	return out
}

// walkStack visits every node under root, passing the ancestor stack
// (outermost first, not including n itself). Return false from f to skip
// the node's children.
func walkStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := f(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
