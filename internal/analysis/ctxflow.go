package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context discipline in library packages: an exported
// function or method that takes a context.Context must take it as its
// first parameter, and library code must not mint root contexts with
// context.Background()/context.TODO() — it threads the caller's ctx so
// cancellation and deadlines propagate to every blocking callee.
// Documented bit-identical fast paths keep an explicit
// //lemonvet:allow ctxflow <reason>.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported functions take ctx first; no context.Background()/TODO() outside main and tests",
	Run:  perPackage(runCtxFlow),
}

func runCtxFlow(p *Pass, pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkCtxPosition(p, info, n)
			case *ast.CallExpr:
				if name, ok := isContextRoot(info, n); ok {
					p.Reportf("ctxflow", n.Pos(),
						"context.%s() in library code: thread the caller's ctx (or annotate a documented fast path)", name)
				}
			}
			return true
		})
	}
}

// checkCtxPosition flags exported functions that accept a context.Context
// anywhere but first.
func checkCtxPosition(p *Pass, info *types.Info, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(info, field.Type) && pos > 0 {
			p.Reportf("ctxflow", field.Pos(),
				"exported %s takes context.Context as parameter %d; ctx must come first", fd.Name.Name, pos+1)
			return
		}
		pos += n
	}
}

func isContextType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isContextRoot reports whether call is context.Background() or
// context.TODO().
func isContextRoot(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}
