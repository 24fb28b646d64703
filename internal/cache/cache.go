// Package cache provides the lemonaded design cache: a fixed-capacity LRU
// keyed by canonical strings, fronted by singleflight deduplication so
// that concurrent identical computations collapse into one.
//
// The intended workload is dse.Explore behind /v1/dse/explore: a search
// over a canonicalized Spec is pure and deterministic (same key ⇒ same
// design, bit for bit), so caching cannot change results — only make the
// second identical request orders of magnitude faster, and a stampede of
// identical requests cost one search total.
package cache

import "sync"

// entry is one LRU slot, woven into an intrusive doubly-linked list with
// sentinel root (most recent next to root.next).
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// call is one in-flight computation that callers wait on.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a concurrency-safe LRU with singleflight semantics. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int                  // immutable after New
	items    map[string]*entry[V] // guarded by mu
	root     entry[V]             // guarded by mu; list sentinel
	flight   map[string]*call[V]  // guarded by mu
}

// New returns a cache holding at most capacity values; at least one slot
// is always available.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache[V]{
		capacity: capacity,
		items:    make(map[string]*entry[V], capacity),
		flight:   make(map[string]*call[V]),
	}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

// Do returns the cached value for key, or computes it with fn. Concurrent
// Do calls for the same key share one fn execution — every waiter gets the
// same value and error. Only successful results enter the cache; an error
// is returned to the callers that joined that flight and the next Do
// retries. hit reports whether the value was served from cache without
// waiting on a computation.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.moveFront(e)
		c.mu.Unlock()
		return e.val, true, nil
	}
	if fl, ok := c.flight[key]; ok {
		// Join the in-flight computation. Not a cache hit: the caller
		// still waits for the work, it just isn't duplicated.
		c.mu.Unlock()
		<-fl.done
		return fl.val, false, fl.err
	}
	fl := &call[V]{done: make(chan struct{})}
	c.flight[key] = fl
	c.mu.Unlock()

	fl.val, fl.err = fn()
	close(fl.done)

	c.mu.Lock()
	delete(c.flight, key)
	if fl.err == nil {
		c.insert(key, fl.val)
	}
	c.mu.Unlock()
	return fl.val, false, fl.err
}

// insert adds key→val at the front, evicting the least-recently-used
// entry if over capacity. Caller holds mu.
func (c *Cache[V]) insert(key string, val V) {
	if e, ok := c.items[key]; ok { // raced with another flight; refresh
		e.val = val
		c.moveFront(e)
		return
	}
	if len(c.items) >= c.capacity {
		lru := c.root.prev
		c.unlink(lru)
		delete(c.items, lru.key)
	}
	e := &entry[V]{key: key, val: val}
	c.items[key] = e
	c.linkFront(e)
}

func (c *Cache[V]) moveFront(e *entry[V]) {
	c.unlink(e)
	c.linkFront(e)
}

func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[V]) linkFront(e *entry[V]) {
	e.next = c.root.next
	e.prev = &c.root
	e.next.prev = e
	c.root.next = e
}
