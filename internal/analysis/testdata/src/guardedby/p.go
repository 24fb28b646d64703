// Package guardedby is the fixture for the guardedby program analyzer:
// fields annotated `// guarded by <mu>` may only be accessed with the
// named sibling mutex held.
package guardedby

import "sync"

// Box carries both mutex flavors so read- and write-lock modes are covered.
type Box struct {
	mu sync.Mutex
	rw sync.RWMutex

	n     int      // guarded by mu
	items []string // guarded by rw
}

// OKLocked reads under the lock.
func (b *Box) OKLocked() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// OKRead reads under the read lock.
func (b *Box) OKRead() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	return len(b.items)
}

// OKWrite writes under the write lock.
func (b *Box) OKWrite(s string) {
	b.rw.Lock()
	b.items = append(b.items, s)
	b.rw.Unlock()
}

// OKErrorPath releases on the early return; the access after the branch is
// still covered because lock effects inside a branch do not escape it.
func (b *Box) OKErrorPath(bail bool) int {
	b.mu.Lock()
	if bail {
		b.mu.Unlock()
		return -1
	}
	defer b.mu.Unlock()
	return b.n
}

// BadUnlocked reads with no lock at all.
func (b *Box) BadUnlocked() int {
	return b.n // want guardedby
}

// BadWriteUnderRLock holds only the read lock while writing.
func (b *Box) BadWriteUnderRLock(s string) {
	b.rw.RLock()
	defer b.rw.RUnlock()
	b.items = append(b.items, s) // want guardedby
}

// bumpLocked does not lock itself, but every call path to it holds b.mu,
// so the access is accepted via the call graph.
func (b *Box) bumpLocked() {
	b.n++
}

// OKCallerHolds is bumpLocked's only caller and holds the lock.
func (b *Box) OKCallerHolds() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bumpLocked()
}

// badHelper is reached from BadCaller without the lock: flagged at the
// helper, where the unprotected access lives.
func (b *Box) badHelper() int {
	return b.n // want guardedby
}

// BadCaller reaches badHelper lock-free.
func (b *Box) BadCaller() int {
	return b.badHelper()
}

// NewBox initializes fields before the box escapes: fresh-object accesses
// are exempt.
func NewBox() *Box {
	b := &Box{}
	b.n = 1
	b.items = nil
	return b
}

// Snapshot documents why its lock-free read is safe and suppresses the
// finding; this is the fixture's //lemonvet:allow example.
func (b *Box) Snapshot() int {
	return b.n //lemonvet:allow guardedby fixture example: caller quiesces all writers first
}

// The cases below pin branch locality for every kind of branch the walker
// enters: a lock released or taken inside one stays inside it. Each fails
// if the walker lets the branch's effect reach the code after it.

// OKSwitchRelease releases only in the case that returns; the read after
// the switch still holds the lock.
func (b *Box) OKSwitchRelease(mode int) int {
	b.mu.Lock()
	switch mode {
	case 0:
		b.mu.Unlock()
		return -1
	}
	defer b.mu.Unlock()
	return b.n
}

// OKSelectRelease releases only in the comm clause that returns.
func (b *Box) OKSelectRelease(done <-chan struct{}) int {
	b.mu.Lock()
	select {
	case <-done:
		b.mu.Unlock()
		return -1
	default:
	}
	defer b.mu.Unlock()
	return b.n
}

// OKTypeSwitchRelease releases only in the case of its type switch that
// returns.
func (b *Box) OKTypeSwitchRelease(v any) int {
	b.mu.Lock()
	switch x := v.(type) {
	case int:
		b.mu.Unlock()
		return x
	}
	defer b.mu.Unlock()
	return b.n
}

// BadElseIfLock takes the lock in an else-if's init statement, which runs
// only when first is false: on the first branch the read is unlocked.
func (b *Box) BadElseIfLock(first, second bool) int {
	n := 0
	if first {
		n = 1
	} else if b.mu.Lock(); second {
		n = 2
	}
	return n + b.n // want guardedby
}

// BadForPostLock takes the lock in the loop's post statement, which never
// runs when once is false: then the read is unlocked.
func (b *Box) BadForPostLock(once bool) int {
	for run := once; run; b.mu.Lock() {
		run = false
	}
	return b.n // want guardedby
}
