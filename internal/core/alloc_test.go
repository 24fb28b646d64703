package core

import (
	"errors"
	"runtime"
	"testing"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// buildLongLived fabricates an encoded architecture whose switches last
// far beyond the accesses a test performs (α in the millions), so the
// steady-state cost of Access can be measured without the copy dying.
func buildLongLived(t *testing.T, n, k int, secret []byte) *Architecture {
	t.Helper()
	design := dse.Design{
		Spec:   dse.Spec{Dist: weibull.MustNew(5e6, 8)},
		T:      1000,
		UpperT: 1000,
		N:      n,
		K:      k,
		Copies: 1,
	}
	a, err := Build(design, secret, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAccessAllocsSteadyState pins the access path's allocation budget:
// after warmup, one access allocates only the returned secret (the
// architecture's picked-slot scratch, share selection, and Shamir
// reconstruction all run on reused or pooled buffers).
func TestAccessAllocsSteadyState(t *testing.T) {
	secret := []byte("the paper's limited-use secret")
	for _, tc := range []struct {
		name string
		n, k int
	}{
		{"replica", 8, 1},
		{"gf256", 16, 4},
		{"gf16", 300, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := buildLongLived(t, tc.n, tc.k, secret)
			env := nems.Environment{}
			if _, err := a.Access(env); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := a.Access(env); err != nil {
					panic(err)
				}
			})
			// The returned secret is one allocation; leave headroom for
			// runtime bookkeeping but forbid per-switch or per-share churn.
			if allocs > 2 {
				t.Fatalf("Access allocates %.1f times per call, want <= 2 (secret only)", allocs)
			}
		})
	}
}

// TestCopySlabsAreSealed pins the one-slab layout: every copy's switches
// are a window of exactly its physical width (primaries plus spares) with
// no spare capacity, so nothing appended through one copy can reach the
// next copy's switches.
func TestCopySlabsAreSealed(t *testing.T) {
	design := goldenDesign(t, 14)
	secret := []byte("sealed slabs")
	plain, err := Build(design, secret, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	leveled, err := BuildLeveled(design, secret, Leveling{Spares: 4, Epoch: 10}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a    *Architecture
		phys int
	}{{plain, design.N}, {leveled, design.N + 4}} {
		if len(tc.a.copies) != design.Copies {
			t.Fatalf("%d copies, want %d", len(tc.a.copies), design.Copies)
		}
		for ci, c := range tc.a.copies {
			if len(c.switches) != tc.phys || cap(c.switches) != tc.phys {
				t.Fatalf("copy %d: len %d cap %d, want both %d", ci, len(c.switches), cap(c.switches), tc.phys)
			}
		}
	}
}

// TestPendingRemapNotDueAllocatesNothing pins the leveled maintenance
// check's fast path: before the epoch ends, with every in-service switch
// working, PendingRemap reports no plan without building one.
func TestPendingRemapNotDueAllocatesNothing(t *testing.T) {
	design := goldenDesign(t, 14)
	a, err := BuildLeveled(design, []byte("no plan yet"), Leveling{Spares: 4, Epoch: 1 << 20}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Access(nems.RoomTemp); err != nil {
		t.Fatal(err)
	}
	if _, due := a.PendingRemap(); due {
		t.Fatal("a fresh leveled architecture reported a plan before its epoch")
	}
	if n := testing.AllocsPerRun(100, func() { a.PendingRemap() }); n != 0 {
		t.Fatalf("PendingRemap allocates %.1f times per call when no plan is due, want 0", n)
	}
}

// TestAccessAllocsWholeLife pins the access path's allocation budget over
// an architecture's whole life, at the paper point (67 copies) and the
// wide point (23 copies): driven to lockout, the accesses allocate the
// secret of each success and at most a small fixed number of objects
// besides. A scratch buffer kept per copy rather than per architecture
// would be grown again on each copy's first access, which the one-copy
// steady-state test above cannot see.
func TestAccessAllocsWholeLife(t *testing.T) {
	const slack = 16
	for _, alpha := range []float64{14, 40} {
		design := goldenDesign(t, alpha)
		a, err := Build(design, []byte("the paper's limited-use secret"), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			if _, err := a.Access(nems.RoomTemp); errors.Is(err, ErrExhausted) {
				break
			}
		}
		runtime.ReadMemStats(&after)
		_, successes := a.Accesses()
		if mallocs := after.Mallocs - before.Mallocs; mallocs > successes+slack {
			t.Errorf("α=%v, %d copies: %d allocations over the accesses of a life with %d successes, want at most %d",
				alpha, design.Copies, mallocs, successes, successes+slack)
		}
	}
}
