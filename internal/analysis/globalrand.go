package analysis

import (
	"go/ast"
	"strconv"
)

// GlobalRand reports ambient-nondeterminism sources inside the
// deterministic engine packages: importing math/rand (v1 or v2), and
// calls that resolve to time.Now or the os environment getters, however
// the package is imported. The protocol's only legitimate randomness is
// the splittable internal/rng stream, which is reproducible from a
// master seed; anything else would unpin the differential and fuzz
// suites.
var GlobalRand = &Analyzer{
	Name:     "globalrand",
	Doc:      "no math/rand, time.Now, or os.Getenv in deterministic packages; use internal/rng",
	Packages: deterministicPackages,
	Run:      runGlobalRand,
}

// bannedCalls maps an import path to the names of its functions that
// deterministic packages may not call.
var bannedCalls = map[string]map[string]bool{
	"time": {"Now": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
}

func runGlobalRand(p *Pass) {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(),
					"deterministic package %s imports %s: all randomness must flow through internal/rng (reproducible from the master seed)",
					p.PkgPath, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil && bannedCalls[fn.Pkg().Path()][fn.Name()] {
				p.Reportf(call.Pos(),
					"deterministic package %s calls %s.%s: ambient state breaks reproducibility; thread the value in explicitly",
					p.PkgPath, fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
}
