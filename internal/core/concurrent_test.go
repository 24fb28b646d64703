package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
)

// exactBudgetArch builds an architecture with a hard, known wearout
// budget: copies × lifetime successful accesses, then lockout forever.
// Deterministic single-switch copies (n=1, k=1) remove the statistical
// spread, so the concurrency test can assert an exact bound.
func exactBudgetArch(copies int, lifetime uint64, secret []byte) *Architecture {
	a := &Architecture{
		design: dse.Design{N: 1, K: 1, Copies: copies, T: int(lifetime)},
		copies: make([]*archCopy, copies),
	}
	for ci := range a.copies {
		a.copies[ci] = &archCopy{
			switches: []nems.Switch{*nems.FabricateDeterministic(lifetime)},
			dec:      replicaDecoder{secret: secret},
			k:        1,
		}
	}
	return a
}

// TestConcurrentAccessNeverExceedsBudget is the satellite requirement: N
// goroutines hammer Access concurrently (run under -race); the number of
// successes never exceeds the hardware wearout budget, and once the
// budget is spent every access returns ErrExhausted.
func TestConcurrentAccessNeverExceedsBudget(t *testing.T) {
	const (
		copies   = 3
		lifetime = 40
		budget   = copies * lifetime
		workers  = 16
	)
	secret := []byte("limited-use")
	a := exactBudgetArch(copies, lifetime, secret)

	var successes, transients, exhausted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				got, err := a.Access(nems.RoomTemp)
				switch {
				case err == nil:
					if string(got) != string(secret) {
						t.Errorf("Access returned %q, want %q", got, secret)
						return
					}
					successes.Add(1)
				case errors.Is(err, ErrTransient):
					transients.Add(1)
				case errors.Is(err, ErrExhausted):
					exhausted.Add(1)
					return
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := successes.Load(); got != budget {
		t.Errorf("successes = %d, want exactly the hardware budget %d", got, budget)
	}
	// Each copy dies on the actuation that exceeds its lifetime — that
	// discovering access is reported transient (retry hits the next copy) —
	// so deterministic switches yield exactly one transient per copy.
	if got := transients.Load(); got != copies {
		t.Errorf("transients = %d, want exactly %d (one per copy death)", got, copies)
	}
	if a.Alive() {
		t.Error("architecture alive after budget spent")
	}
	total, okCount := a.Accesses()
	if okCount != uint64(budget) {
		t.Errorf("Accesses() ok = %d, want %d", okCount, budget)
	}
	if total != uint64(budget)+uint64(transients.Load())+uint64(exhausted.Load()) {
		t.Errorf("total %d != budget %d + transients %d + exhausted probes %d",
			total, budget, transients.Load(), exhausted.Load())
	}

	// Post-lockout: always ErrExhausted, from every goroutine.
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < 10; i++ {
				if _, err := a.Access(nems.RoomTemp); !errors.Is(err, ErrExhausted) {
					t.Errorf("post-lockout Access = %v, want ErrExhausted", err)
					return
				}
			}
		}()
	}
	wg2.Wait()
}

// TestConcurrentObserverCounts checks the observer sees every attempt
// exactly once even under concurrency (it runs with the lock held).
func TestConcurrentObserverCounts(t *testing.T) {
	const budget = 30
	a := exactBudgetArch(1, budget, []byte("s"))
	var events atomic.Int64
	a.SetObserver(func(AccessEvent) { events.Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := a.Access(nems.RoomTemp); errors.Is(err, ErrExhausted) {
					return
				}
			}
		}()
	}
	wg.Wait()
	total, _ := a.Accesses()
	if got := events.Load(); got != int64(total) {
		t.Errorf("observer saw %d events, architecture counted %d attempts", got, total)
	}
}
