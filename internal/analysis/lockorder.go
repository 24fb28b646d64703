package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder derives the program's lock-acquisition order and fails on any
// cycle in it. An edge A → B is recorded when a lock of class B is
// acquired — directly, or anywhere inside a callee reached from the call
// graph — while a lock of class A is lexically held. Lock classes are
// struct-field or package-level mutex identities ("wal.DiskStore.mu"), so
// the order is program-wide: two functions in different packages that
// nest the same two classes in opposite orders form a cycle even if they
// never call each other. Self-edges (acquiring a class while holding it)
// are reported too: with sync.Mutex that is an immediate deadlock risk.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the program-wide lock acquisition order must be acyclic (deadlock freedom)",
	Run:  runLockOrder,
}

// lockEdge is one observed "acquired to while holding from" pair.
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       *FuncInfo
	// via names the callee whose transitive acquisition created the edge;
	// empty for a direct acquisition.
	via string
}

func runLockOrder(p *Pass) {
	prog := p.Prog

	// Phase 1: per function, record direct acquisitions (for the
	// may-acquire fixpoint) and the acquire/call events observed while
	// locks are held.
	type callEvent struct {
		call *ast.CallExpr
		held []heldLock
		fn   *FuncInfo
	}
	direct := make(map[*FuncInfo]map[string]bool)
	var edges []lockEdge
	var callEvents []callEvent
	callSitesByExpr := make(map[*FuncInfo]map[*ast.CallExpr][]*CallSite)

	for _, fn := range prog.funcsInOrder {
		direct[fn] = make(map[string]bool)
		byExpr := make(map[*ast.CallExpr][]*CallSite)
		for _, cs := range fn.Callees {
			byExpr[cs.Call] = append(byExpr[cs.Call], cs)
		}
		callSitesByExpr[fn] = byExpr
		walkFuncHeld(fn.Pkg.Info, fn.Decl.Body, func(n ast.Node, held []heldLock) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if lk, acquire, ok := lockOpOf(fn.Pkg.Info, call); ok {
				if !acquire || lk.class == "" {
					return
				}
				direct[fn][lk.class] = true
				for _, h := range held {
					if h.class != "" {
						edges = append(edges, lockEdge{from: h.class, to: lk.class, pos: call.Pos(), fn: fn})
					}
				}
				return
			}
			if len(held) > 0 && len(byExpr[call]) > 0 {
				callEvents = append(callEvents, callEvent{call: call, held: held, fn: fn})
			}
		})
	}

	// Phase 2: may-acquire fixpoint over the call graph. mayAcquire(f) is
	// every lock class f can take directly or through any callee.
	mayAcquire := make(map[*FuncInfo]map[string]bool)
	for fn, d := range direct {
		set := make(map[string]bool, len(d))
		for class := range d {
			set[class] = true
		}
		mayAcquire[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.funcsInOrder {
			set := mayAcquire[fn]
			for _, cs := range fn.Callees {
				for class := range mayAcquire[cs.Callee] {
					if !set[class] {
						set[class] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: materialize call-transitive edges.
	for _, ev := range callEvents {
		for _, cs := range callSitesByExpr[ev.fn][ev.call] {
			classes := make([]string, 0, len(mayAcquire[cs.Callee]))
			for class := range mayAcquire[cs.Callee] {
				classes = append(classes, class)
			}
			sort.Strings(classes)
			for _, h := range ev.held {
				if h.class == "" {
					continue
				}
				for _, class := range classes {
					edges = append(edges, lockEdge{
						from: h.class, to: class, pos: ev.call.Pos(), fn: ev.fn,
						via: cs.Callee.Obj.FullName(),
					})
				}
			}
		}
	}

	// Phase 4: keep one witness per (from, to) — the earliest position —
	// then report every edge that lies inside a strongly connected
	// component (every such edge is on a cycle).
	witness := make(map[[2]string]lockEdge)
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if w, ok := witness[key]; !ok || e.pos < w.pos {
			witness[key] = e
		}
	}
	keys := make([][2]string, 0, len(witness))
	adj := make(map[string][]string)
	for key := range witness {
		keys = append(keys, key)
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	scc := stronglyConnected(adj)
	for _, key := range keys {
		from, to := key[0], key[1]
		if from == to {
			e := witness[key]
			p.Reportf("lockorder", e.pos, "lock %s acquired while already held%s", from, viaSuffix(e))
			continue
		}
		if scc[from] != 0 && scc[from] == scc[to] {
			e := witness[key]
			cyc := cyclePath(adj, from, to)
			p.Reportf("lockorder", e.pos,
				"lock-order cycle %s: acquiring %s while holding %s%s inverts the order used elsewhere",
				strings.Join(cyc, " -> "), to, from, viaSuffix(e))
		}
	}
}

func viaSuffix(e lockEdge) string {
	if e.via == "" {
		return ""
	}
	return fmt.Sprintf(" (via call to %s)", e.via)
}

// stronglyConnected assigns every node that belongs to a multi-node SCC a
// nonzero component id (Tarjan). Nodes in singleton components get 0.
func stronglyConnected(adj map[string][]string) map[string]int {
	nodes := make([]string, 0, len(adj))
	seen := make(map[string]bool)
	addNode := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, compID := 1, 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := append([]string(nil), adj[v]...)
		sort.Strings(tos)
		for _, w := range tos {
			if index[w] == 0 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] {
				if index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strong(v)
		}
	}
	return comp
}

// cyclePath renders a representative cycle through the edge from → to:
// the edge itself closed by the shortest path (BFS in deterministic
// order) leading from to back to from.
func cyclePath(adj map[string][]string, from, to string) []string {
	prev := map[string]string{to: ""}
	queue := []string{to}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == from {
			break
		}
		tos := append([]string(nil), adj[v]...)
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := prev[w]; !ok {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	if _, ok := prev[from]; !ok {
		return []string{from, to, from} // unreachable inside an SCC
	}
	// Backtrack from → … → to, then emit the cycle forward.
	var back []string
	for v := from; v != ""; v = prev[v] {
		back = append(back, v)
	}
	path := []string{from}
	for i := len(back) - 1; i >= 0; i-- {
		path = append(path, back[i])
	}
	return path
}
