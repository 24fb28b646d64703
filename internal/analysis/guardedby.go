package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GuardedBy enforces the `// guarded by <mu>` field-comment convention: a
// struct field annotated that way may only be read while the named sibling
// mutex is held (write-locked for writes), either lexically in the same
// function or in every function along every call path that reaches the
// access. Field accesses on freshly constructed objects (the base variable
// is declared inside the function, so nothing else can see the object yet)
// are exempt — constructors initialize fields before the object escapes.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated `// guarded by <mu>` must only be accessed with the named mutex held",
	Run:  runGuardedBy,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardAnnotations maps each annotated struct field to the name of the
// sibling mutex field that guards it.
func guardAnnotations(prog *Program) map[*types.Var]string {
	guards := make(map[*types.Var]string)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					mu := guardNameOf(field)
					if mu == "" {
						continue
					}
					for _, name := range field.Names {
						if fv, ok := pkg.Info.Defs[name].(*types.Var); ok {
							guards[fv] = mu
						}
					}
				}
				return true
			})
		}
	}
	return guards
}

func guardNameOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func runGuardedBy(p *Pass) {
	prog := p.Prog
	guards := guardAnnotations(prog)
	if len(guards) == 0 {
		return
	}

	// heldAtCall records the lexically held locks at every call site, for
	// the reachable-only-from-holders check below.
	heldAtCall := make(map[*ast.CallExpr][]heldLock)

	type access struct {
		fn    *FuncInfo
		sel   *ast.SelectorExpr
		field *types.Var
		mu    string
		write bool
		held  []heldLock
	}
	var accesses []access
	freshByFn := make(map[*FuncInfo]map[types.Object]bool)

	for _, fn := range prog.funcsInOrder {
		freshByFn[fn] = freshLocals(fn)
		parents := parentMap(fn.Decl)
		walkFuncHeld(fn.Pkg.Info, fn.Decl.Body, func(n ast.Node, held []heldLock) {
			switch n := n.(type) {
			case *ast.CallExpr:
				heldAtCall[n] = held
			case *ast.SelectorExpr:
				selinfo := fn.Pkg.Info.Selections[n]
				if selinfo == nil || selinfo.Kind() != types.FieldVal {
					return
				}
				fv, ok := selinfo.Obj().(*types.Var)
				if !ok {
					return
				}
				mu, ok := guards[fv]
				if !ok {
					return
				}
				accesses = append(accesses, access{
					fn:    fn,
					sel:   n,
					field: fv,
					mu:    mu,
					write: isWriteAccess(parents, n),
					held:  held,
				})
			}
		})
	}

	// receiverHolds reports whether every call path into fn holds
	// <recv>.mu on fn's receiver (write-held if write). A call site holds
	// it when the lock is lexically held there on the receiver expression
	// of the call; it defers when that receiver is the caller's own
	// receiver, so a helper called only by lock holders passes too.
	type guard struct {
		mu    string
		write bool
	}
	memos := make(map[guard]map[*FuncInfo]bool)
	receiverHolds := func(fn *FuncInfo, mu string, write bool) bool {
		memo := memos[guard{mu, write}]
		if memo == nil {
			memo = make(map[*FuncInfo]bool)
			memos[guard{mu, write}] = memo
		}
		return everyCaller(fn, memo, func(cs *CallSite) siteVerdict {
			if cs.ViaInterface {
				// An interface call site names the interface value, not
				// the concrete receiver; no lock correlation is possible.
				return siteFails
			}
			sel, ok := ast.Unparen(cs.Call.Fun).(*ast.SelectorExpr)
			if !ok {
				return siteFails // plain function call, no receiver to correlate
			}
			recv := ast.Unparen(sel.X)
			if heldHas(heldAtCall[cs.Call], types.ExprString(recv)+"."+mu, write) {
				return siteHolds
			}
			baseID := baseIdent(recv)
			if baseID == nil {
				return siteFails
			}
			if obj := identObj(cs.Caller.Pkg.Info, baseID); obj == nil || obj != receiverObj(cs.Caller) {
				return siteFails
			}
			return siteDefers
		})
	}

	for _, acc := range accesses {
		base := ast.Unparen(acc.sel.X)
		needKey := types.ExprString(base) + "." + acc.mu
		if heldHas(acc.held, needKey, acc.write) {
			continue
		}
		// Fresh-object exemption: the base variable holds an object this
		// function constructed itself (composite literal, new, make), so
		// nothing else can see it yet — constructors initialize fields
		// before the object escapes.
		if baseID := baseIdent(base); baseID != nil {
			obj := identObj(acc.fn.Pkg.Info, baseID)
			if obj != nil && freshByFn[acc.fn][obj] {
				continue
			}
			// Receiver access: accept if every call path to this function
			// holds the guard on the same receiver.
			if obj != nil && obj == receiverObj(acc.fn) && receiverHolds(acc.fn, acc.mu, acc.write) {
				continue
			}
		}
		verb := "read"
		if acc.write {
			verb = "write to"
		}
		p.Reportf("guardedby", acc.sel.Pos(),
			"%s of field %s (guarded by %s) without holding %s on any path reaching %s",
			verb, fieldPath(acc.field), acc.mu, needKey, acc.fn.Obj.Name())
	}
}

func fieldPath(fv *types.Var) string {
	return fv.Pkg().Name() + "." + fv.Name()
}

// isWriteAccess reports whether sel is written: it (or an index/deref of
// it) appears on the left of an assignment, in an IncDec statement, or has
// its address taken.
func isWriteAccess(parents map[ast.Node]ast.Node, sel ast.Expr) bool {
	n := ast.Node(sel)
	for {
		parent := parents[n]
		switch p := parent.(type) {
		case *ast.IndexExpr:
			if p.X != n {
				return false
			}
			n = p
		case *ast.StarExpr, *ast.ParenExpr:
			n = p.(ast.Expr)
		case *ast.SelectorExpr:
			// Selecting a field *of* sel: writes to the inner field are
			// writes through sel's object, treat as write only if the
			// outer chain is written; keep climbing.
			if p.X != n {
				return false
			}
			n = p
		case *ast.IncDecStmt:
			return true
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == n {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
}

// baseIdent returns the innermost identifier of a selector/index/deref
// chain, e.g. `s` for `s.shards[i].m`, or nil when the chain is rooted in
// something else (a call result, a composite literal).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// freshLocals collects the local variables of fn that are bound to
// objects the function constructed itself: `x := &T{...}`, `x := T{...}`,
// `x := new(T)`, `x := make(...)`, or a valueless `var x T` declaring a
// zero value in place. Aliases to shared state (`s := r.shardFor(id)`,
// `s := &r.shards[i]`) are NOT fresh.
func freshLocals(fn *FuncInfo) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	define := func(id *ast.Ident) {
		if id.Name == "_" {
			return
		}
		if obj := fn.Pkg.Info.Defs[id]; obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if ok && isFreshExpr(n.Rhs[i]) {
					define(id)
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					define(id)
				}
				return true
			}
			if len(n.Values) == len(n.Names) {
				for i, id := range n.Names {
					if isFreshExpr(n.Values[i]) {
						define(id)
					}
				}
			}
		}
		return true
	})
	return fresh
}

func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && (id.Name == "new" || id.Name == "make")
	}
	return false
}

func receiverObj(fn *FuncInfo) types.Object {
	if fn.Decl.Recv == nil || len(fn.Decl.Recv.List) == 0 {
		return nil
	}
	names := fn.Decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil
	}
	return fn.Pkg.Info.Defs[names[0]]
}
