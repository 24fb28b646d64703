// Package cluster turns a fleet of lemonaded processes into one logical
// lemonade: architecture IDs are placed onto nodes by a deterministic
// consistent-hash ring, and an architecture's n Shamir shares are
// provisioned across n distinct nodes so that any k of them can answer
// an access.
//
// The placement function is the load-bearing piece: every node and every
// client computes it independently, so it must be a pure function of
// (seed, node set, key) with no process-local state — two processes that
// agree on the ring configuration agree, bit for bit, on where every
// share lives. That is what lets the read path run with no coordinator:
// a client routes share i of arch X straight to owner i, and the owner
// needs to consult nobody to know the share is (or is not) its own.
//
// The budget story mirrors the paper's, lifted one level: each node's
// WAL logs-ahead only the wear on the shares it physically owns, so the
// global reveal budget is enforced by k independent per-node hardware
// budgets rather than by any shared counter. See DESIGN.md §14.
package cluster

import (
	"fmt"
	"sort"
)

// Ring is a rendezvous (highest-random-weight) placement ring over a
// fixed set of named nodes. It is immutable after construction and safe
// for concurrent use.
//
// Rendezvous hashing is chosen over a ketama-style virtual-node circle
// because its minimal-disruption property is exact, not statistical:
// removing one node reassigns exactly the keys that node owned, and the
// surviving owners of every key keep their relative order (pinned by
// TestRingRemovalMovesOnlyOwnedKeys). With the small node counts a
// lemonade cluster runs (3–16), the O(nodes · log nodes) per-placement
// cost is noise.
type Ring struct {
	seed   uint64
	nodes  []string // sorted, unique
	hashes []uint64 // hashes[i] = node hash of nodes[i]
}

// NewRing builds a ring over the given node names with the given seed.
// The input order is irrelevant: names are sorted, so every process that
// agrees on the *set* of nodes and the seed computes identical
// placements. Empty and duplicate names are rejected.
func NewRing(nodes []string, seed uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n)
		}
	}
	r := &Ring{seed: seed, nodes: sorted, hashes: make([]uint64, len(sorted))}
	for i, n := range sorted {
		r.hashes[i] = mix64(fnv64(n) ^ 0x9e3779b97f4a7c15)
	}
	return r, nil
}

// Seed returns the placement seed the ring was built with.
func (r *Ring) Seed() uint64 { return r.seed }

// Size returns the number of nodes on the ring.
func (r *Ring) Size() int { return len(r.nodes) }

// Nodes returns the node names in their canonical (sorted) order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Owners returns the n distinct nodes responsible for key, best first:
// Owners(key, n)[i] is the owner of share i. Placement is the rendezvous
// rule — every node scores the key, the top n win — so it is a pure
// function of (seed, node set, key) and bit-identical across processes.
// n larger than the ring is an error: shares must land on distinct
// nodes, or losing one node could cost more than one share.
func (r *Ring) Owners(key string, n int) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one owner, got %d", n)
	}
	if n > len(r.nodes) {
		return nil, fmt.Errorf("cluster: %d shares cannot land on distinct nodes of a %d-node ring", n, len(r.nodes))
	}
	kh := mix64(fnv64(key) ^ r.seed)
	type scored struct {
		score uint64
		idx   int
	}
	all := make([]scored, len(r.nodes))
	for i := range r.nodes {
		all[i] = scored{score: mix64(r.hashes[i] ^ kh), idx: i}
	}
	// Ties broken by canonical node order, so the placement stays a total
	// order even if two scores collide.
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].idx < all[j].idx
	})
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = r.nodes[all[i].idx]
	}
	return out, nil
}

// fnv64 is FNV-1a over s — the same stable string hash the registry's
// shard picker uses, with no process-local state.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap, well-studied bijection
// that spreads the structured bit patterns of FNV hashes and small
// seeds across the whole word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
