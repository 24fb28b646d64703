package cluster_test

import (
	"fmt"
	"slices"
	"testing"

	"lemonade/internal/cluster"
)

func fiveNodes() []string { return []string{"n0", "n1", "n2", "n3", "n4"} }

// TestRingDeterministicAcrossConstruction pins the property every other
// cluster invariant rests on: placement is a pure function of (seed,
// node set, key). Input order must not matter, and a different seed
// must produce a different placement.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	a, err := cluster.NewRing(fiveNodes(), 42)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := []string{"n3", "n0", "n4", "n2", "n1"}
	b, err := cluster.NewRing(shuffled, 42)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cluster.NewRing(fiveNodes(), 43)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("arch-%06d", i+1)
		oa, err := a.Owners(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := b.Owners(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(oa, ob) {
			t.Fatalf("key %s: node order changed placement: %v vs %v", key, oa, ob)
		}
		oo, err := other.Owners(key, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(oa, oo) {
			differs = true
		}
		// Owners must be distinct nodes — one node lost may cost at most
		// one share.
		seen := map[string]bool{}
		for _, o := range oa {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner in %v", key, oa)
			}
			seen[o] = true
		}
	}
	if !differs {
		t.Fatal("changing the seed never changed any placement")
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := cluster.NewRing(nil, 1); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := cluster.NewRing([]string{"a", "a"}, 1); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, err := cluster.NewRing([]string{"a", ""}, 1); err == nil {
		t.Fatal("empty node name accepted")
	}
	r, err := cluster.NewRing([]string{"a", "b"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Owners("k", 3); err == nil {
		t.Fatal("3 owners on a 2-node ring accepted")
	}
	if _, err := r.Owners("k", 0); err == nil {
		t.Fatal("0 owners accepted")
	}
}

// TestRingRemovalMovesOnlyOwnedKeys is the exact form of rendezvous
// hashing's minimal-disruption property: dropping one node from the
// ring changes a key's owner list ONLY by deleting that node from it
// (surviving owners keep their slots and relative order, one new node
// fills the freed tail slot). Keys the removed node did not own are
// placed bit-identically. Quantitatively, the primary owner moves for
// exactly the ~1/N of keys the removed node fronted.
func TestRingRemovalMovesOnlyOwnedKeys(t *testing.T) {
	const nKeys, owners = 1000, 3
	nodes := fiveNodes()
	full, err := cluster.NewRing(nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, removed := range nodes {
		rest := make([]string, 0, len(nodes)-1)
		for _, n := range nodes {
			if n != removed {
				rest = append(rest, n)
			}
		}
		small, err := cluster.NewRing(rest, 42)
		if err != nil {
			t.Fatal(err)
		}
		primaryMoved := 0
		for i := 1; i <= nKeys; i++ {
			key := fmt.Sprintf("arch-%06d", i)
			before, err := full.Owners(key, owners)
			if err != nil {
				t.Fatal(err)
			}
			after, err := small.Owners(key, owners)
			if err != nil {
				t.Fatal(err)
			}
			if before[0] != after[0] {
				primaryMoved++
			}
			if !slices.Contains(before, removed) {
				if !slices.Equal(before, after) {
					t.Fatalf("%s (removed %s): unowned key moved: %v -> %v", key, removed, before, after)
				}
				continue
			}
			if before[0] != removed && before[0] != after[0] {
				t.Fatalf("%s (removed %s): primary moved though %s was not primary: %v -> %v",
					key, removed, removed, before, after)
			}
			survivors := make([]string, 0, owners-1)
			for _, n := range before {
				if n != removed {
					survivors = append(survivors, n)
				}
			}
			if !slices.Equal(after[:owners-1], survivors) {
				t.Fatalf("%s (removed %s): surviving owners reordered: %v -> %v", key, removed, before, after)
			}
			if slices.Contains(before, after[owners-1]) {
				t.Fatalf("%s (removed %s): freed slot refilled from existing owners: %v -> %v",
					key, removed, before, after)
			}
		}
		// The primary owner moves iff the removed node was primary: ~1/N of
		// keys. A generous band still catches a broken hash collapsing onto
		// one node (100%) or a ketama-style cascade (~2/N+).
		frac := float64(primaryMoved) / nKeys
		if frac < 0.5/float64(len(nodes)) || frac > 2.0/float64(len(nodes)) {
			t.Fatalf("removed %s: primary owner moved for %.1f%% of keys, want ~%.1f%%",
				removed, 100*frac, 100.0/float64(len(nodes)))
		}
	}
}
