package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesSuccess(t *testing.T) {
	c := New[int](4)
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	v, hit, err := c.Do("k", fn)
	if err != nil || hit || v != 42 {
		t.Fatalf("first Do = (%d, %t, %v)", v, hit, err)
	}
	v, hit, err = c.Do("k", fn)
	if err != nil || !hit || v != 42 {
		t.Fatalf("second Do = (%d, %t, %v), want cache hit", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Do("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if v, _, err := c.Do("k", func() (int, error) { calls++; return 7, nil }); err != nil || v != 7 {
		t.Fatalf("retry = (%d, %v)", v, err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (error must not be cached)", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2)
	mk := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	_, _, _ = c.Do("a", mk(1))
	_, _, _ = c.Do("b", mk(2))
	_, _, _ = c.Do("a", mk(0)) // touch a: b becomes LRU
	_, _, _ = c.Do("c", mk(3)) // evicts b
	if v, hit, _ := c.Do("a", mk(0)); !hit || v != 1 {
		t.Errorf("a = (%d, %t), want cached 1", v, hit)
	}
	if len(c.items) != 2 {
		t.Errorf("len = %d, want 2", len(c.items))
	}
	if v, hit, _ := c.Do("b", mk(20)); hit || v != 20 {
		t.Errorf("b = (%d, %t), want recomputed 20: b should have been evicted", v, hit)
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	c := New[int](4)
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", func() (int, error) {
				calls.Add(1)
				<-gate // hold every concurrent caller on one flight
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times under contention, want 1", got)
	}
	for i, v := range results {
		if v != 99 {
			t.Errorf("waiter %d got %d, want 99", i, v)
		}
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New[string](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%16)
				v, _, err := c.Do(key, func() (string, error) { return key, nil })
				if err != nil || v != key {
					t.Errorf("Do(%q) = (%q, %v)", key, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.items) > 8 {
		t.Errorf("len = %d exceeds capacity", len(c.items))
	}
}
