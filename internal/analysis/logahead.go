package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LogAhead turns DESIGN.md §8's log-ahead rule into a build-breaking
// check: inside the wear-accounting packages (registry, wal), any call
// that mutates wear state — core.Architecture Access, Stress, Retire,
// ApplyRemap and Restore, nems Actuate — must be dominated by a *checked
// commit ticket wait*: a `tkt, err := store.Append(...)` whose ticket's
// Wait() error result is tested before the mutation. With group commit,
// Append only stages the record; the ticket resolving is the proof it is
// durably fsynced, so checking the Append error alone does NOT establish
// the barrier — deleting the ticket-wait before the mutation in
// registry's Entry.commit fails the build. A mutation that is not locally
// dominated is still accepted when every call path reaching its function
// performs the checked wait first; replay and snapshot restore, which
// apply records already durable, carry an explicit
// //lemonvet:allow logahead.
var LogAhead = &ProgramAnalyzer{
	Name: "logahead",
	Doc:  "wear-state mutations in registry/wal must be preceded by a checked Store.Append commit-ticket wait",
	Run:  runLogAhead,
}

// isWearMutator reports whether call invokes a wear-state mutation: a
// method of a type declared in a package whose import path ends in /core
// or /nems, with a mutating method name.
func isWearMutator(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeOf(info, call)
	if fn == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	named := derefNamed(recv.Type())
	if named == nil {
		return "", false
	}
	pkgPath := named.Obj().Pkg().Path()
	var mutating bool
	switch {
	case pkgPath == "core" || strings.HasSuffix(pkgPath, "/core"):
		switch fn.Name() {
		case "Access", "Restore", "Stress", "Retire", "ApplyRemap":
			mutating = true
		}
	case pkgPath == "nems" || strings.HasSuffix(pkgPath, "/nems"):
		mutating = fn.Name() == "Actuate"
	}
	if !mutating {
		return "", false
	}
	return named.Obj().Name() + "." + fn.Name(), true
}

// isStoreAppend reports whether call is a Store.Append invocation.
func isStoreAppend(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Append" {
		return false
	}
	_, ok = info.Uses[sel.Sel].(*types.Func)
	return ok
}

// mutatorSite is one wear-mutation call observed during the walk.
type mutatorSite struct {
	call      *ast.CallExpr
	what      string
	fn        *FuncInfo
	barriered bool
}

func runLogAhead(p *ProgramPass) {
	prog := p.Prog

	// Per function: barrier state at every call expression. The barrier
	// becomes true after a Store.Append whose error result has been
	// tested on the fall-through path (`if err != nil { ... return }`).
	barrierAtCall := make(map[*ast.CallExpr]bool)
	var mutators []mutatorSite

	for _, fn := range prog.funcsInOrder {
		fn := fn
		w := &barrierWalker{
			info: fn.Pkg.Info,
			visit: func(call *ast.CallExpr, barriered bool) {
				barrierAtCall[call] = barriered
				if what, ok := isWearMutator(fn.Pkg.Info, call); ok {
					mutators = append(mutators, mutatorSite{call: call, what: what, fn: fn, barriered: barriered})
				}
			},
		}
		w.stmts(fn.Decl.Body.List, newBarrierState())
	}

	checker := &barrierChecker{barrierAtCall: barrierAtCall, memo: make(map[*FuncInfo]holderState)}
	for _, m := range mutators {
		if m.barriered {
			continue
		}
		if checker.allCallersBarriered(m.fn) {
			continue
		}
		p.Reportf("logahead", m.call.Pos(),
			"wear-state mutation %s is not dominated by a checked Store.Append on every path (log-ahead rule, DESIGN.md §8)",
			m.what)
	}
}

// barrierChecker decides whether every call path reaching fn has already
// passed a checked Store.Append.
type barrierChecker struct {
	barrierAtCall map[*ast.CallExpr]bool
	memo          map[*FuncInfo]holderState
}

func (c *barrierChecker) allCallersBarriered(fn *FuncInfo) bool {
	if state, ok := c.memo[fn]; ok {
		return state == holderYes
	}
	c.memo[fn] = holderUnknown // cycle guard
	ok := c.compute(fn)
	if ok {
		c.memo[fn] = holderYes
	} else {
		c.memo[fn] = holderNo
	}
	return ok
}

func (c *barrierChecker) compute(fn *FuncInfo) bool {
	if len(fn.Callers) == 0 {
		return false
	}
	for _, cs := range fn.Callers {
		if c.barrierAtCall[cs.Call] {
			continue
		}
		if !c.allCallersBarriered(cs.Caller) {
			return false
		}
	}
	return true
}

// barrierState tracks, along one control-flow path, which variables hold
// commit tickets from a Store.Append (tickets), which error variables
// hold a ticket's Wait() result (pending), and whether a checked
// ticket-wait dominates the current point (barrier).
type barrierState struct {
	tickets map[types.Object]bool
	pending map[types.Object]bool
	barrier bool
}

func newBarrierState() *barrierState {
	return &barrierState{tickets: map[types.Object]bool{}, pending: map[types.Object]bool{}}
}

func (s *barrierState) clone() *barrierState {
	out := &barrierState{
		tickets: make(map[types.Object]bool, len(s.tickets)),
		pending: make(map[types.Object]bool, len(s.pending)),
		barrier: s.barrier,
	}
	for k, v := range s.tickets {
		out.tickets[k] = v
	}
	for k, v := range s.pending {
		out.pending[k] = v
	}
	return out
}

// barrierWalker mirrors heldWalker's branch-copy traversal but tracks the
// append-then-check barrier instead of held locks.
type barrierWalker struct {
	info  *types.Info
	visit func(call *ast.CallExpr, barriered bool)
}

func (w *barrierWalker) stmts(list []ast.Stmt, st *barrierState) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *barrierWalker) branch(s ast.Stmt, st *barrierState) {
	w.stmt(s, st.clone())
}

func (w *barrierWalker) stmt(s ast.Stmt, st *barrierState) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		w.stmts(s.List, st.clone())
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.expr(s.Cond, st)
		w.branch(s.Body, st)
		if s.Else != nil {
			w.branch(s.Else, st)
		}
		// `if err != nil { ...; return/panic }` on a pending append error
		// establishes the barrier for the statements that follow.
		if s.Else == nil && w.testsPendingErr(s.Cond, st) && terminates(s.Body) {
			st.barrier = true
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.expr(s.Cond, st)
		}
		w.stmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.branch(s.Post, st)
		}
	case *ast.RangeStmt:
		w.expr(s.X, st)
		w.stmts(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			w.expr(s.Tag, st)
		}
		for _, clause := range s.Body.List {
			w.branch(clause, st)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.branch(s.Assign, st)
		for _, clause := range s.Body.List {
			w.branch(clause, st)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, st)
		}
		w.stmts(s.Body, st)
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			w.branch(clause, st)
		}
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm, st)
		}
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
		for _, e := range s.Rhs {
			w.expr(e, st)
		}
		for _, e := range s.Lhs {
			w.expr(e, st)
		}
		// `tkt, err := store.Append(...)` marks tkt as a commit ticket;
		// `werr := tkt.Wait()` marks werr pending — checking THAT error is
		// what establishes the barrier (the append error alone only proves
		// the record was staged, not that it is durable).
		if len(s.Rhs) == 1 {
			if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
				switch {
				case isStoreAppend(w.info, call):
					for _, lhs := range s.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := identObj(w.info, id)
						if obj != nil && !types.Identical(obj.Type(), errorType) {
							st.tickets[obj] = true
						}
					}
				case w.isTicketWait(call, st):
					for _, lhs := range s.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := identObj(w.info, id)
						if obj != nil && types.Identical(obj.Type(), errorType) {
							st.pending[obj] = true
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, st)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, st)
					}
				}
			}
		}
	default:
	}
}

func (w *barrierWalker) expr(e ast.Expr, st *barrierState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			// A closure body runs at an unknown time: walk it with a
			// fresh, unbarriered state.
			w.stmts(lit.Body.List, newBarrierState())
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.visit(call, st.barrier)
		}
		return true
	})
}

// isTicketWait reports whether call is tkt.Wait() on a tracked commit
// ticket.
func (w *barrierWalker) isTicketWait(call *ast.CallExpr, st *barrierState) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := identObj(w.info, id)
	return obj != nil && st.tickets[obj]
}

// testsPendingErr reports whether cond reads an error variable that holds
// a pending commit-ticket Wait result.
func (w *barrierWalker) testsPendingErr(cond ast.Expr, st *barrierState) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(w.info, id); obj != nil && st.pending[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// terminates reports whether the block always leaves the function (return
// or panic somewhere in it — good enough for the flat error-check shapes
// this codebase uses).
func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return true
	})
	return found
}

var errorType = types.Universe.Lookup("error").Type()
