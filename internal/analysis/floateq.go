package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between computed floating-point expressions.
// Exact float comparison is almost always a bug in simulation code — two
// mathematically equal quantities computed along different paths differ in
// the last ulp, and the branch silently depends on rounding. Exempt are the
// two legitimate idioms:
//
//   - self-comparison (x != x), the portable NaN test;
//   - comparison against a compile-time constant or math.Inf(...) sentinel
//     (x == 0 boundary cases, beta == 1 special-casing an exact parameter,
//     saturation checks against ±Inf) — these test for an exactly
//     representable value that was *assigned*, not computed.
//
// Everything else should use a tolerance (mathx helpers) or be annotated.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= between computed floating-point expressions",
	Run:  perPackage(runFloatEq),
}

func runFloatEq(pass *Pass, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pkg.Info, bin.X) && !isFloat(pkg.Info, bin.Y) {
				return true
			}
			if types.ExprString(bin.X) == types.ExprString(bin.Y) {
				return true // NaN idiom: x != x
			}
			if isSentinel(pkg.Info, bin.X) || isSentinel(pkg.Info, bin.Y) {
				return true
			}
			pass.Reportf("floateq", bin.OpPos,
				"%s between computed floats; compare with a tolerance or annotate //lemonvet:allow floateq", bin.Op)
			return true
		})
	}
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isSentinel reports whether e is a compile-time constant or a direct
// math.Inf(...) call — exactly representable values that code assigns and
// later tests for, rather than results of arithmetic.
func isSentinel(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Inf" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "math"
}
