package analysis

import (
	"go/ast"
	"go/types"
)

// ErrSink reports discarded error results on the calls whose failure
// means data loss in the persistence and serving layers: Close, Sync,
// Flush, Write and WriteString called as bare statements (including
// deferred), and fmt.Fprint* writing to an abstract writer (io.Writer,
// http.ResponseWriter — sinks that really can fail mid-response).
// Writes into concrete in-memory buffers (bytes.Buffer, strings.Builder,
// *bufio.Writer before its checked Flush) never fail, so passing a
// concrete type is both documentation and the fix.
//
// An explicit `_ = f.Close()` states intent and is not reported; a bare
// `f.Close()` in a JSONL store or a defer silently drops the one signal
// that an fsync'd segment did not actually reach the disk.
var ErrSink = &Analyzer{
	Name: "errsink",
	Doc:  "no discarded errors from Close/Sync/Flush/Write or fmt.Fprint* to abstract writers",
	Packages: []string{
		"internal/jobs",
		"internal/telemetry",
		"internal/workload",
		"internal/cluster",
		"cmd/optnetd",
	},
	Run: runErrSink,
}

// errSinkMethods are the method names whose dropped error is a data-loss
// signal.
var errSinkMethods = map[string]bool{
	"Close":       true,
	"Sync":        true,
	"Flush":       true,
	"Write":       true,
	"WriteString": true,
}

func runErrSink(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					p.checkErrSinkCall(call, false)
				}
			case *ast.DeferStmt:
				p.checkErrSinkCall(n.Call, true)
			case *ast.GoStmt:
				p.checkErrSinkCall(n.Call, false)
			}
			return true
		})
	}
}

// checkErrSinkCall reports the call if it discards a watched error.
func (p *Pass) checkErrSinkCall(call *ast.CallExpr, deferred bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.checkFprint(call, fn)
		return
	}
	if sig.Recv() == nil || !errSinkMethods[fn.Name()] {
		return
	}
	how := "call"
	if deferred {
		how = "deferred call"
	}
	p.Reportf(call.Pos(),
		"%s to %s.%s discards its error: handle it, or write `_ = %s.%s(...)` with an //optlint:allow errsink justification if the failure truly cannot matter",
		how, exprString(sel.X), fn.Name(), exprString(sel.X), fn.Name())
}

// checkFprint reports fmt.Fprint* statements writing to an abstract
// writer type; a concrete in-memory writer is exempt because its writes
// cannot fail.
func (p *Pass) checkFprint(call *ast.CallExpr, fn *types.Func) {
	switch fn.Name() {
	case "Fprint", "Fprintf", "Fprintln":
	default:
		return
	}
	if len(call.Args) == 0 {
		return
	}
	t := p.Info.TypeOf(call.Args[0])
	if t == nil || !types.IsInterface(t) {
		return
	}
	p.Reportf(call.Pos(),
		"fmt.%s writes to abstract writer type %s and discards the error: a failed mid-response write goes unnoticed; check the error or pass a concrete in-memory writer",
		fn.Name(), t.String())
}

// lastResultIsError reports whether the signature's final result is the
// predeclared error type.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
