package cluster

import (
	"fmt"
	"strconv"
)

// Config describes one node's view of the cluster. Every node (and
// every cluster-aware client) must be handed the same Nodes set and
// Seed, or placements will disagree and shares will be refused as
// misrouted.
type Config struct {
	// Self is this node's name. Must be one of Nodes for a server; a
	// pure client leaves it empty.
	Self string
	// Nodes maps node name -> base URL (e.g. "http://127.0.0.1:8091").
	// The key set defines the ring membership.
	Nodes map[string]string
	// Seed is the shared placement seed.
	Seed uint64
}

// Node is one member's resolved cluster identity: its name and the
// ring. It is immutable after construction and safe for concurrent use.
type Node struct {
	self string
	ring *Ring
}

// NewNode validates cfg and builds the node's ring. Self must be a
// ring member when non-empty.
func NewNode(cfg Config) (*Node, error) {
	names := make([]string, 0, len(cfg.Nodes))
	for name, url := range cfg.Nodes {
		if url == "" {
			return nil, fmt.Errorf("cluster: node %q has no URL", name)
		}
		names = append(names, name)
	}
	ring, err := NewRing(names, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Self != "" {
		if _, ok := cfg.Nodes[cfg.Self]; !ok {
			return nil, fmt.Errorf("cluster: self %q is not a ring member", cfg.Self)
		}
	}
	return &Node{self: cfg.Self, ring: ring}, nil
}

// Self returns this node's name ("" for a pure client).
func (n *Node) Self() string { return n.self }

// Ring returns the node's placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// ShareID names share idx of cluster architecture clusterID in a
// node's local registry. The "@s" separator keeps the ID outside the
// registry's minted arch-%06d namespace (so local mints can never
// collide with cluster shares) and is URL-path-safe, unlike '#'.
func ShareID(clusterID string, idx int) string {
	return clusterID + "@s" + strconv.Itoa(idx)
}

// EncodeShare packs a Shamir share point for the wire: one byte of X
// followed by the share data. The share data is what the owning node's
// limited-use architecture guards; X rides along so the client can
// reconstruct without re-deriving placement order.
func EncodeShare(x byte, data []byte) []byte {
	out := make([]byte, 1+len(data))
	out[0] = x
	copy(out[1:], data)
	return out
}

// DecodeShare unpacks an EncodeShare payload.
func DecodeShare(b []byte) (x byte, data []byte, err error) {
	if len(b) < 2 {
		return 0, nil, fmt.Errorf("cluster: share payload too short (%d bytes)", len(b))
	}
	return b[0], b[1:], nil
}
