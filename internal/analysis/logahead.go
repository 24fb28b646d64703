package analysis

import (
	"go/ast"
	"go/types"
	"maps"
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
var LogAhead = &Analyzer{
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
	call *ast.CallExpr
	what string
	fn   *FuncInfo
}

func runLogAhead(p *Pass) {
	prog := p.Prog

	// Per function: barrier state at every call expression. The barrier
	// becomes true after a Store.Append whose ticket's Wait() error has
	// been tested on the fall-through path (`if err != nil { ... return }`).
	barrierAtCall := make(map[*ast.CallExpr]bool)
	var mutators []mutatorSite

	for _, fn := range prog.funcsInOrder {
		info := fn.Pkg.Info
		walkFlow(fn.Decl.Body, newTicketState,
			func(n ast.Node, st *ticketState) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				barrierAtCall[call] = st.barrier
				if what, ok := isWearMutator(info, call); ok {
					mutators = append(mutators, mutatorSite{call: call, what: what, fn: fn})
				}
			},
			func(s ast.Stmt, st *ticketState) { st.transfer(info, s) })
	}

	// A site passes when the barrier is up at the call itself, and defers
	// to its caller otherwise.
	memo := make(map[*FuncInfo]bool)
	barriered := func(cs *CallSite) siteVerdict {
		if barrierAtCall[cs.Call] {
			return siteHolds
		}
		return siteDefers
	}
	for _, m := range mutators {
		if barrierAtCall[m.call] || everyCaller(m.fn, memo, barriered) {
			continue
		}
		p.Reportf("logahead", m.call.Pos(),
			"wear-state mutation %s is not dominated by a checked Store.Append on every path (log-ahead rule, DESIGN.md §8)",
			m.what)
	}
}

// ticketState tracks, along one control-flow path, which variables hold
// commit tickets from a Store.Append (tickets), which error variables
// hold a ticket's Wait() result (pending), and whether a checked
// ticket-wait dominates the current point (barrier).
type ticketState struct {
	tickets map[types.Object]bool
	pending map[types.Object]bool
	barrier bool
}

func newTicketState() *ticketState {
	return &ticketState{tickets: map[types.Object]bool{}, pending: map[types.Object]bool{}}
}

func (s *ticketState) clone() *ticketState {
	return &ticketState{tickets: maps.Clone(s.tickets), pending: maps.Clone(s.pending), barrier: s.barrier}
}

// transfer applies one statement's effect on the barrier.
func (s *ticketState) transfer(info *types.Info, stmt ast.Stmt) {
	switch stmt := stmt.(type) {
	case *ast.IfStmt:
		// `if err != nil { ...; return/panic }` on a pending wait error
		// establishes the barrier for the statements that follow.
		if stmt.Else == nil && s.testsPending(info, stmt.Cond) && terminates(stmt.Body) {
			s.barrier = true
		}
	case *ast.AssignStmt:
		// `tkt, err := store.Append(...)` marks tkt as a commit ticket;
		// `werr := tkt.Wait()` marks werr pending — checking THAT error is
		// what establishes the barrier (the append error alone only proves
		// the record was staged, not that it is durable).
		if len(stmt.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		var mark map[types.Object]bool
		var wantErr bool
		switch {
		case isStoreAppend(info, call):
			mark, wantErr = s.tickets, false
		case s.isTicketWait(info, call):
			mark, wantErr = s.pending, true
		default:
			return
		}
		for _, lhs := range stmt.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := identObj(info, id); obj != nil && types.Identical(obj.Type(), errorType) == wantErr {
				mark[obj] = true
			}
		}
	}
}

// isTicketWait reports whether call is tkt.Wait() on a tracked commit
// ticket.
func (s *ticketState) isTicketWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := identObj(info, id)
	return obj != nil && s.tickets[obj]
}

// testsPending reports whether cond reads an error variable that holds a
// pending commit-ticket Wait result.
func (s *ticketState) testsPending(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil && s.pending[obj] {
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
