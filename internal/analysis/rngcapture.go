package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RNGCapture flags *rng.RNG values that cross a goroutine boundary without
// an intervening Derive/DeriveIndex/Split. An RNG is documented NOT safe
// for concurrent use: its draw methods mutate the 4-word state, so a
// generator shared with a spawned goroutine is a data race that corrupts
// reproducibility silently (results change with scheduling, not with the
// seed). Derive and DeriveIndex only *read* the parent state, so calling
// them on a captured generator inside the goroutine — as
// montecarlo.RunParallel does per trial index — is safe and allowed;
// everything else must derive or split a private stream before launch.
var RNGCapture = &Analyzer{
	Name: "rngcapture",
	Doc:  "flag *rng.RNG shared with a goroutine without Derive/DeriveIndex/Split",
	Run:  perPackage(runRNGCapture),
}

// deriveOnlyMethods are the *rng.RNG methods that do not mutate the
// receiver and therefore may be called on a generator shared across
// goroutines.
var deriveOnlyMethods = map[string]bool{
	"Derive":      true,
	"DeriveIndex": true,
}

func isRNGPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "RNG" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "lemonade/internal/rng" || strings.HasSuffix(path, "/internal/rng")
}

func runRNGCapture(pass *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoCall(pass, pkg.Info, g)
			return true
		})
	}
}

func checkGoCall(pass *Pass, info *types.Info, g *ast.GoStmt) {
	// An RNG-typed argument evaluated at spawn time hands the parent's
	// generator to the goroutine: `go worker(r)` races with any further use
	// of r. `go worker(r.Split())` and `go worker(r.Derive("w"))` are fine —
	// the child stream is created sequentially, before the goroutine runs.
	for _, arg := range g.Call.Args {
		tv, ok := info.Types[arg]
		if !ok || !isRNGPointer(tv.Type) {
			continue
		}
		if _, isCall := arg.(*ast.CallExpr); isCall {
			continue // a fresh stream from Derive/DeriveIndex/Split/New
		}
		pass.Reportf("rngcapture", arg.Pos(),
			"*rng.RNG passed to goroutine; pass a private stream (Derive/DeriveIndex/Split) instead")
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	// Free *rng.RNG variables used inside the goroutine body: allowed only
	// as the receiver of the read-only Derive/DeriveIndex methods.
	parents := parentMap(lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !isRNGPointer(obj.Type()) {
			return true
		}
		if declaredWithin(obj, lit) {
			return true // the goroutine's own private stream
		}
		if isDeriveReceiver(parents, id) {
			return true
		}
		pass.Reportf("rngcapture", id.Pos(),
			"captured *rng.RNG %q mutated inside goroutine; only Derive/DeriveIndex are safe on a shared generator — give the goroutine its own stream", id.Name)
		return true
	})
}

// declaredWithin reports whether obj's declaration lies inside the function
// literal, i.e. the variable is goroutine-private rather than captured.
func declaredWithin(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() != token.NoPos && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
}

// isDeriveReceiver reports whether id appears as the receiver of a call to
// one of the read-only derivation methods, e.g. base.Derive("label") or
// base.DeriveIndex("trial-", i).
func isDeriveReceiver(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	sel, ok := parents[id].(*ast.SelectorExpr)
	if !ok || sel.X != id || !deriveOnlyMethods[sel.Sel.Name] {
		return false
	}
	call, ok := parents[sel].(*ast.CallExpr)
	return ok && call.Fun == sel
}

func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
