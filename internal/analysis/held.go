package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// heldLock is one mutex acquisition in force at a program point.
type heldLock struct {
	// key is the rendered acquisition expression, e.g. "s.mu" — lexical
	// identity within one function.
	key string
	// class names the lock program-wide, e.g. "wal.DiskStore.mu" for a
	// struct field or "gf16.tableOnce" for a package-level mutex. Empty
	// for locks the passes cannot classify (locals, complex expressions).
	class string
	// field is the mutex field object when the lock is a struct field.
	field *types.Var
	// write distinguishes Lock (true) from RLock (false).
	write bool
	// pos is the acquisition site.
	pos token.Pos
}

// lockOpOf reports whether n is a call to Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the lock it names and whether the
// call acquires (true) or releases (false) it.
func lockOpOf(info *types.Info, n ast.Node) (lk heldLock, acquire, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall {
		return heldLock{}, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return heldLock{}, false, false
	}
	var write bool
	switch sel.Sel.Name {
	case "Lock", "Unlock":
		write = true
	case "RLock", "RUnlock":
		write = false
	default:
		return heldLock{}, false, false
	}
	recv := ast.Unparen(sel.X)
	tv, okType := info.Types[recv]
	if !okType || !isSyncMutex(tv.Type) {
		return heldLock{}, false, false
	}
	lk = heldLock{
		key:   types.ExprString(recv),
		write: write,
		pos:   call.Pos(),
	}
	lk.class, lk.field = lockClass(info, recv)
	acquire = sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock"
	return lk, acquire, true
}

func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockClass derives the program-wide class of the mutex named by recv:
// "pkg.Type.field" for struct fields, "pkg.var" for package-level mutexes,
// "" otherwise (locals and expressions too complex to classify).
func lockClass(info *types.Info, recv ast.Expr) (string, *types.Var) {
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		selinfo := info.Selections[recv]
		if selinfo == nil || selinfo.Kind() != types.FieldVal {
			// Qualified identifier (pkg.Var) has no Selections entry.
			if v, ok := info.Uses[recv.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name(), nil
			}
			return "", nil
		}
		fv, ok := selinfo.Obj().(*types.Var)
		if !ok {
			return "", nil
		}
		owner := derefNamed(selinfo.Recv())
		if owner == nil {
			return "", nil
		}
		return owner.Obj().Pkg().Name() + "." + owner.Obj().Name() + "." + fv.Name(), fv
	case *ast.Ident:
		v, ok := identObj(info, recv).(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", nil
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), nil
		}
		return "", nil
	}
	return "", nil
}

func derefNamed(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	return named
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// walkFuncHeld walks body with walkFlow, tracking which locks are
// lexically held at each point, and calls visit for every node with the
// held set in force there. The held slices it passes are never written
// afterwards, so visit may keep them.
func walkFuncHeld(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, held []heldLock)) {
	walkFlow(body,
		func() *lockSet { return &lockSet{} },
		func(n ast.Node, st *lockSet) { visit(n, st.held) },
		func(s ast.Stmt, st *lockSet) {
			if es, ok := s.(*ast.ExprStmt); ok {
				if lk, acquire, ok := lockOpOf(info, es.X); ok {
					st.held = applyLockOp(st.held, lk, acquire)
				}
			}
		})
}

// lockSet is the held-lock state of one path. applyLockOp never writes
// into an existing held slice, so a clone may share it.
type lockSet struct{ held []heldLock }

func (s *lockSet) clone() *lockSet { return &lockSet{held: s.held} }

// applyLockOp returns held after one acquisition or release. A release
// drops the most recent matching acquisition (same key; Unlock matches
// Lock, RUnlock matches RLock).
func applyLockOp(held []heldLock, lk heldLock, acquire bool) []heldLock {
	if acquire {
		return append(held[:len(held):len(held)], lk)
	}
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == lk.key && held[i].write == lk.write {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// heldHas reports whether held contains the lock with the given key, and
// if needWrite is set, whether that acquisition is a write Lock.
func heldHas(held []heldLock, key string, needWrite bool) bool {
	for _, h := range held {
		if h.key == key && (!needWrite || h.write) {
			return true
		}
	}
	return false
}
