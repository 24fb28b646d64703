package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the lightweight whole-program call graph the
// inter-procedural passes (guardedby, lockorder, logahead) walk. It is
// deliberately approximate but sound for the patterns this codebase uses:
//
//   - Static calls (pkg-level functions and methods with a concrete
//     receiver) are resolved exactly through types.Info.Uses.
//   - Calls through an interface method are expanded to every named type
//     declared in the analyzed program that implements the interface;
//     each such edge is marked ViaInterface.
//   - Function literals are attributed to the enclosing declared function:
//     a call inside a closure counts as a call made by the function that
//     contains the closure. This matches how the codebase uses closures
//     (breaker ops, singleflight thunks) — they run on the caller's
//     goroutine or shortly after, and lock-discipline bugs inside them are
//     still bugs of the enclosing function's call path.
//   - Calls through plain function *values* (fields or parameters of func
//     type) are not traced; this is a documented limit (DESIGN.md §6).
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncInfo

	// funcsInOrder lists every analyzed function in deterministic
	// (package, file, declaration) order.
	funcsInOrder []*FuncInfo
}

// FuncInfo is one declared function or method with a body.
type FuncInfo struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Callees []*CallSite
	Callers []*CallSite
}

// CallSite is one resolved call edge.
type CallSite struct {
	Caller *FuncInfo
	Callee *FuncInfo
	Call   *ast.CallExpr
	// ViaInterface marks an edge added by expanding an interface method
	// call to a concrete implementation declared in the program.
	ViaInterface bool
}

// BuildProgram indexes every function declaration in pkgs and resolves the
// call edges between them.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[*types.Func]*FuncInfo),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}

	// Pass 1: index declared functions.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				prog.Funcs[obj] = fi
				prog.funcsInOrder = append(prog.funcsInOrder, fi)
			}
		}
	}

	impls := prog.interfaceImpls()

	// Pass 2: resolve calls.
	for _, fi := range prog.funcsInOrder {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fi.Pkg.Info, call)
			if callee == nil {
				return true
			}
			if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, impl := range impls.resolve(callee) {
					addEdge(fi, impl, call, true)
				}
				return true
			}
			if target := prog.Funcs[callee]; target != nil {
				addEdge(fi, target, call, false)
			}
			return true
		})
	}
	return prog
}

func addEdge(caller, callee *FuncInfo, call *ast.CallExpr, viaInterface bool) {
	cs := &CallSite{Caller: caller, Callee: callee, Call: call, ViaInterface: viaInterface}
	caller.Callees = append(caller.Callees, cs)
	callee.Callers = append(callee.Callers, cs)
}

// calleeOf resolves the *types.Func a call expression invokes statically,
// or nil for function values, builtins, and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// implTable maps interface methods to their in-program implementations.
type implTable struct {
	prog *Program
	// named lists every non-interface named type declared in the program,
	// in deterministic order.
	named []*types.Named
	memo  map[*types.Func][]*FuncInfo
}

func (p *Program) interfaceImpls() *implTable {
	t := &implTable{prog: p, memo: make(map[*types.Func][]*FuncInfo)}
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			t.named = append(t.named, named)
		}
	}
	return t
}

// resolve returns the in-program methods that may run when imeth is called
// through its interface.
func (t *implTable) resolve(imeth *types.Func) []*FuncInfo {
	if out, ok := t.memo[imeth]; ok {
		return out
	}
	iface, ok := imeth.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var out []*FuncInfo
	if ok {
		for _, named := range t.named {
			var impl types.Type = named
			if !types.Implements(named, iface) {
				ptr := types.NewPointer(named)
				if !types.Implements(ptr, iface) {
					continue
				}
				impl = ptr
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, imeth.Pkg(), imeth.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if fi := t.prog.Funcs[fn]; fi != nil {
				out = append(out, fi)
			}
		}
	}
	t.memo[imeth] = out
	return out
}
