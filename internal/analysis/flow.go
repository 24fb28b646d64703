package analysis

import "go/ast"

// This file holds the two engines the whole-program passes share: a
// branch-local walk of one function body (guardedby and lockorder track
// held locks with it, logahead the commit-ticket barrier) and an
// every-caller fixpoint over the call graph (guardedby asks whether every
// caller holds a lock, logahead whether every caller passed the barrier).

// flowState is the per-path state walkFlow carries through a function
// body. clone returns a copy whose changes do not reach the original.
type flowState[S any] interface {
	clone() S
}

// walkFlow traverses body in source order, carrying a state along the
// current path, and calls visit for every expression node with the state
// in force there. After each statement it calls transfer, which applies
// that statement's own effect (a Lock, an Append) to the state.
//
// The tracking is branch-local: effects inside a nested block
// (if/for/switch/select body) do not leak into the statements that follow
// it, which keeps error paths of the form
//
//	mu.Lock()
//	if bad { mu.Unlock(); return err }
//	...
//	mu.Unlock()
//
// tracked correctly (the lock is still held after the if). A deferred call
// is visited but is not a statement with an effect: `defer mu.Unlock()`
// leaves the lock held until the function returns, as it does
// dynamically. Function literal bodies are walked from fresh(): the passes
// treat a closure's body as running at an unknown time.
func walkFlow[S flowState[S]](body *ast.BlockStmt, fresh func() S, visit func(ast.Node, S), transfer func(ast.Stmt, S)) {
	w := &flowWalker[S]{fresh: fresh, visit: visit, transfer: transfer}
	w.stmts(body.List, fresh())
}

type flowWalker[S flowState[S]] struct {
	fresh    func() S
	visit    func(ast.Node, S)
	transfer func(ast.Stmt, S)
}

func (w *flowWalker[S]) stmts(list []ast.Stmt, st S) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

// branch walks a nested statement on a copy of st, so its effects stay
// local to the branch.
func (w *flowWalker[S]) branch(s ast.Stmt, st S) {
	if s != nil {
		w.stmt(s, st.clone())
	}
}

// branches walks each clause of a switch or select on its own copy of st.
func (w *flowWalker[S]) branches(clauses []ast.Stmt, st S) {
	for _, c := range clauses {
		w.branch(c, st)
	}
}

func (w *flowWalker[S]) exprs(list []ast.Expr, st S) {
	for _, e := range list {
		w.expr(e, st)
	}
}

func (w *flowWalker[S]) stmt(s ast.Stmt, st S) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		w.stmts(s.List, st.clone())
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		w.stmt(s.Body, st)
		w.branch(s.Else, st)
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, st)
		w.stmt(s.Body, st)
		w.branch(s.Post, st)
	case *ast.RangeStmt:
		w.expr(s.Key, st)
		w.expr(s.Value, st)
		w.expr(s.X, st)
		w.stmt(s.Body, st)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		w.expr(s.Tag, st)
		w.branches(s.Body.List, st)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		w.branches(s.Body.List, st)
	case *ast.CaseClause:
		w.exprs(s.List, st)
		w.stmts(s.Body, st)
	case *ast.SelectStmt:
		w.branches(s.Body.List, st)
	case *ast.CommClause:
		w.stmt(s.Comm, st)
		w.stmts(s.Body, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.DeferStmt:
		w.expr(s.Call, st)
	case *ast.GoStmt:
		w.expr(s.Call, st)
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.AssignStmt:
		w.exprs(s.Rhs, st)
		w.exprs(s.Lhs, st)
	case *ast.ReturnStmt:
		w.exprs(s.Results, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, st)
				}
			}
		}
	}
	w.transfer(s, st)
}

// expr visits every node of e, descending into function literal bodies
// with a fresh state.
func (w *flowWalker[S]) expr(e ast.Expr, st S) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		w.visit(n, st)
		if lit, ok := n.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, w.fresh())
			return false
		}
		return true
	})
}

// siteVerdict is what one call site says about a property that must hold
// on every call path into a function.
type siteVerdict int

const (
	siteFails  siteVerdict = iota // the path through this site breaks the property
	siteHolds                     // the property holds at the site itself
	siteDefers                    // it holds if it holds on every path into the site's caller
)

// everyCaller reports whether every call path reaching fn satisfies the
// property judge decides one call site at a time, walking the call graph
// upward through sites that defer to their caller. A function with no
// callers fails: nothing proves its callers satisfy the property. memo
// holds the answers for one property; a function whose answer is still
// being computed counts as failing, so recursion proves nothing.
func everyCaller(fn *FuncInfo, memo map[*FuncInfo]bool, judge func(*CallSite) siteVerdict) bool {
	if ok, done := memo[fn]; done {
		return ok
	}
	memo[fn] = false
	ok := len(fn.Callers) > 0
	for _, cs := range fn.Callers {
		v := judge(cs)
		if v == siteFails || v == siteDefers && !everyCaller(cs.Caller, memo, judge) {
			ok = false
			break
		}
	}
	memo[fn] = ok
	return ok
}
