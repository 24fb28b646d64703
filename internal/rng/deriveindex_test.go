package rng

import (
	"fmt"
	"math"
	"testing"
)

// TestDeriveIndexEquivalence locks down the reproducibility contract of
// DeriveIndex: for any parent state and index, DeriveIndex(label, i) must
// produce a stream bit-identical to Derive(fmt.Sprintf(label+"%d", i)).
// montecarlo relies on this to keep historical trial streams stable after
// switching its hot loop to the allocation-free form.
func TestDeriveIndexEquivalence(t *testing.T) {
	indices := []int{0, 1, 2, 9, 10, 11, 99, 100, 12345, 1 << 30, math.MaxInt64 & (1<<62 - 1), -1, -10, -12345, math.MinInt64}
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF} {
		parent := New(seed)
		// Advance the parent a little so the state is not the raw seed mix.
		parent.Uint64()
		for _, label := range []string{"trial-", "", "shard/", "x"} {
			for _, i := range indices {
				want := parent.Derive(fmt.Sprintf(label+"%d", i))
				got := parent.DeriveIndex(label, i)
				for k := 0; k < 8; k++ {
					w, g := want.Uint64(), got.Uint64()
					if w != g {
						t.Fatalf("seed=%d label=%q i=%d draw %d: DeriveIndex=%#x Derive=%#x", seed, label, i, k, g, w)
					}
				}
			}
		}
	}
}

func TestDeriveIndexDistinctStreams(t *testing.T) {
	parent := New(7)
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		v := parent.DeriveIndex("trial-", i).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d share first draw %#x", prev, i, v)
		}
		seen[v] = i
	}
}

// TestDeriveIndexNoAlloc asserts the hot-loop derivation does not allocate.
func TestDeriveIndexNoAlloc(t *testing.T) {
	parent := New(1)
	allocs := testing.AllocsPerRun(200, func() {
		sink = parent.DeriveIndex("trial-", 123456)
	})
	// One allocation for the returned *RNG itself is expected; the point is
	// that the label formatting contributes zero.
	if allocs > 1 {
		t.Fatalf("DeriveIndex allocates %.1f times per call, want <= 1", allocs)
	}
}

var sink *RNG

// TestIndexDeriverEquivalence pins SeedInto to DeriveIndex: for any parent
// state, label, and index, the caller-held generator must land in exactly
// the state DeriveIndex returns — that equality is what lets montecarlo
// reuse one generator across thousands of trials.
func TestIndexDeriverEquivalence(t *testing.T) {
	indices := []int{0, 1, 9, 10, 99, 12345, 1 << 30, -1, -12345, math.MinInt64}
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF} {
		parent := New(seed)
		parent.Uint64()
		for _, label := range []string{"trial-", "", "shard/"} {
			d := parent.IndexDeriver(label)
			var got RNG
			for _, i := range indices {
				d.SeedInto(&got, i)
				want := parent.DeriveIndex(label, i)
				if got.State() != want.State() {
					t.Fatalf("seed=%d label=%q i=%d: SeedInto state %x, DeriveIndex state %x",
						seed, label, i, got.State(), want.State())
				}
			}
		}
	}
}

// TestIndexDeriverCapturesState: the deriver snapshots the parent state at
// construction; advancing the parent afterwards must not change its
// streams (same rule as holding the result of a DeriveIndex call).
func TestIndexDeriverCapturesState(t *testing.T) {
	parent := New(11)
	d := parent.IndexDeriver("trial-")
	want := parent.DeriveIndex("trial-", 3)
	parent.Uint64() // advance after capture
	var got RNG
	d.SeedInto(&got, 3)
	if got.State() != want.State() {
		t.Fatal("IndexDeriver stream changed when the parent advanced after capture")
	}
}

// TestSeedIntoNoAlloc asserts the amortized derivation path is fully
// allocation-free, caller-held generator included.
func TestSeedIntoNoAlloc(t *testing.T) {
	parent := New(1)
	d := parent.IndexDeriver("trial-")
	var r RNG
	allocs := testing.AllocsPerRun(200, func() {
		d.SeedInto(&r, 123456)
	})
	if allocs != 0 {
		t.Fatalf("SeedInto allocates %.1f times per call, want 0", allocs)
	}
}
