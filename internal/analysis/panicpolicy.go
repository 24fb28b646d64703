package analysis

import (
	"go/ast"
	"go/types"
)

// PanicPolicy flags panic calls in library code. Library functions hit by
// recoverable conditions (bad input, failed validation) must return errors
// the caller can handle; panic is reserved for programmer-error invariants
// — impossible states whose only correct handling is a crash — and each
// such site carries a //lemonvet:allow panic <reason> annotation so the
// judgment is recorded next to the code. Commands (cmd/...) are exempt via
// the driver config: top-level main functions may crash on fatal errors.
var PanicPolicy = &Analyzer{
	Name: "panicpolicy",
	Doc:  "flag panic in library code; return errors or annotate //lemonvet:allow panic",
	Run:  perPackage(runPanicPolicy),
}

func runPanicPolicy(pass *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // a local function named panic, not the builtin
			}
			pass.Reportf("panicpolicy", call.Pos(),
				"panic in library code; return an error, or annotate //lemonvet:allow panic <reason> if this is a programmer-error invariant")
			return true
		})
	}
}
