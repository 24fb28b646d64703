package server

import (
	"fmt"
	"net/http"
)

// A cluster node lets N lemonaded processes serve one logical lemonade:
// a cluster-level architecture is Shamir-split by the client, and each
// node fabricates an ordinary limited-use architecture around the
// single share placed on it, registered under the share's ID
// (cluster.ShareID). Shares go through the ordinary provision route
// with a SharePlacement attached and are accessed through the ordinary
// access route by that ID; everything downstream — the registry's
// log-ahead pipeline, the WAL, recovery, snapshots — treats a share
// architecture exactly like a local one. The only cluster-specific
// logic is placement validation at provision time, which needs no peer
// traffic because the ring is a pure function every party computes
// independently.

// validateClusterPlacement checks a share placement against this
// node's ring: malformed triples are 400, shares owned by another node
// are 421 Misdirected Request — the client's ring disagrees with ours,
// and accepting the share would silently double-place it. A node with
// no cluster identity refuses every placement with 400. Returns false
// after writing the refusal.
func (s *Server) validateClusterPlacement(w http.ResponseWriter, p *SharePlacement) bool {
	if s.cluster == nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "share placement needs a cluster node", Field: "share"})
		return false
	}
	if p.ClusterID == "" {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "cluster_id must be set", Field: "cluster_id"})
		return false
	}
	if p.ShareTotal < 1 || p.ShareTotal > s.cluster.Ring().Size() {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("share_total must be 1..%d (ring size), got %d", s.cluster.Ring().Size(), p.ShareTotal),
			Field: "share_total",
		})
		return false
	}
	if p.ShareIndex < 0 || p.ShareIndex >= p.ShareTotal {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("share_index must be 0..%d, got %d", p.ShareTotal-1, p.ShareIndex),
			Field: "share_index",
		})
		return false
	}
	owners, err := s.cluster.Ring().Owners(p.ClusterID, p.ShareTotal)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return false
	}
	if owners[p.ShareIndex] != s.cluster.Self() {
		s.writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
			Error: fmt.Sprintf("share %d of %q belongs to %q, not %q (ring disagreement)",
				p.ShareIndex, p.ClusterID, owners[p.ShareIndex], s.cluster.Self()),
		})
		return false
	}
	return true
}

// handleClusterRing reports this node's placement configuration, so
// clients and operators can verify ring agreement before trusting
// placements.
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, RingResponse{
		Self:  s.cluster.Self(),
		Seed:  s.cluster.Ring().Seed(),
		Nodes: s.cluster.Ring().Nodes(),
	})
}
