package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// forbiddenImports are sources of nondeterminism that simulation packages
// must never use; all randomness flows through lemonade/internal/rng.
var forbiddenImports = map[string]string{
	"math/rand":    "use lemonade/internal/rng with an explicit seed",
	"math/rand/v2": "use lemonade/internal/rng with an explicit seed",
}

// forbiddenTimeFuncs are the wall-clock entry points of package time. The
// time package itself stays importable: time.Duration arithmetic is
// deterministic and legitimate in simulation code.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// NoDeterminism forbids math/rand imports and wall-clock reads in
// simulation packages. Every figure in EXPERIMENTS.md must regenerate
// bit-identically, so simulated stochastic behaviour may only come from an
// explicit, seeded *rng.RNG, and nothing in a simulation path may observe
// real time. (crypto/rand is untouched: key-generation paths legitimately
// use it, and it never feeds simulation results.)
//
// sync.Pool is conditionally allowed: whether Get returns a cached object
// or nil depends on GC timing and scheduling, so a pool is only
// deterministic behind the fallback seam — a New function, which makes
// the hit and miss paths structurally identical, provided every pooled
// buffer is re-sliced and fully overwritten before it is read. A pool
// declared without New is flagged.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid math/rand imports, time.Now/Since/Until, and sync.Pool without a New fallback in simulation packages",
	Run:  perPackage(runNoDeterminism),
}

func runNoDeterminism(pass *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if hint, bad := forbiddenImports[path]; bad {
				pass.Reportf("nodeterminism", imp.Pos(),
					"import of %q breaks reproducibility; %s", path, hint)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			if forbiddenTimeFuncs[sel.Sel.Name] {
				pass.Reportf("nodeterminism", sel.Pos(),
					"time.%s reads the wall clock; simulation results must not depend on real time", sel.Sel.Name)
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isSyncPool(pkg.Info.Types[n].Type) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "New" {
						return true
					}
				}
				pass.Reportf("nodeterminism", n.Pos(),
					"sync.Pool without a New fallback: Get returns nil depending on GC timing; declare the deterministic-fallback seam (New) and fully overwrite pooled buffers before reading them")
			case *ast.ValueSpec:
				// A zero-value pool declaration (`var p sync.Pool`) has the
				// same missing seam as an empty literal.
				if len(n.Values) > 0 {
					return true
				}
				for _, name := range n.Names {
					obj := pkg.Info.Defs[name]
					if obj != nil && isSyncPool(obj.Type()) {
						pass.Reportf("nodeterminism", name.Pos(),
							"zero-value sync.Pool: Get returns nil depending on GC timing; declare the deterministic-fallback seam (New) and fully overwrite pooled buffers before reading them")
					}
				}
			}
			return true
		})
	}
}

// isSyncPool reports whether t is sync.Pool (not a pointer or alias chain
// ending elsewhere).
func isSyncPool(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
