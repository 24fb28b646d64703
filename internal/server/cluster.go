package server

import (
	"encoding/hex"
	"fmt"
	"net/http"

	"lemonade/internal/cluster"
	"lemonade/internal/core"
	"lemonade/internal/rng"
)

// The cluster endpoints let N lemonaded processes serve one logical
// lemonade: a cluster-level architecture is Shamir-split by the client,
// and each node fabricates an ordinary limited-use architecture around
// the single share placed on it. Everything downstream of the handler —
// the registry's log-ahead pipeline, the WAL, recovery, snapshots —
// treats a share architecture exactly like a local one; the only
// cluster-specific logic here is placement validation, which needs no
// peer traffic because the ring is a pure function every party computes
// independently.

// validateClusterPlacement checks the (clusterID, shareIndex,
// shareTotal) triple of a cluster request against this node's ring:
// malformed triples are 400, shares owned by another node are 421
// Misdirected Request — the client's ring disagrees with ours, and
// accepting the share would silently double-place it. Returns false
// after writing the refusal.
func (s *Server) validateClusterPlacement(w http.ResponseWriter, clusterID string, shareIndex, shareTotal int) bool {
	if clusterID == "" {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "cluster_id must be set", Field: "cluster_id"})
		return false
	}
	if shareTotal < 1 || shareTotal > s.cluster.Ring().Size() {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("share_total must be 1..%d (ring size), got %d", s.cluster.Ring().Size(), shareTotal),
			Field: "share_total",
		})
		return false
	}
	if shareIndex < 0 || shareIndex >= shareTotal {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("share_index must be 0..%d, got %d", shareTotal-1, shareIndex),
			Field: "share_index",
		})
		return false
	}
	owners, err := s.cluster.Ring().Owners(clusterID, shareTotal)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return false
	}
	if owners[shareIndex] != s.cluster.Self() {
		s.writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
			Error: fmt.Sprintf("share %d of %q belongs to %q, not %q (ring disagreement)",
				shareIndex, clusterID, owners[shareIndex], s.cluster.Self()),
		})
		return false
	}
	return true
}

// handleClusterShare fabricates the limited-use architecture guarding
// one share of a cluster architecture. The share payload is the
// architecture's protected secret; provisioning follows the exact
// log-ahead path of a local provision, so recovery rebuilds share
// architectures with no cluster-specific machinery. A duplicate share
// ID (a retried or raced provision) is refused with 409 before
// anything is logged.
func (s *Server) handleClusterShare(w http.ResponseWriter, r *http.Request) {
	if s.refuseDegraded(w) {
		return
	}
	var req ClusterShareRequest
	if err := decodeJSON(r, &req, false); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if !s.validateClusterPlacement(w, req.ClusterID, req.ShareIndex, req.ShareTotal) {
		return
	}
	payload, err := hex.DecodeString(req.ShareHex)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "share_hex: " + err.Error(), Field: "share_hex"})
		return
	}
	if len(payload) < 2 || len(payload) > maxSecretBytes {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("share_hex must encode 2..%d bytes (x byte + data), got %d", maxSecretBytes, len(payload)),
			Field: "share_hex",
		})
		return
	}
	spec, err := specFromWire(req.Spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	design, _, err := s.explore(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	arch, err := core.Build(design, payload, rng.New(req.Seed))
	if err != nil {
		s.writeError(w, err)
		return
	}
	e, err := s.reg.ProvisionShare(cluster.ShareID(req.ClusterID, req.ShareIndex), arch, req.Seed, payload)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.mProvisioned.Inc()
	s.gLive.Set(int64(s.reg.Len()))
	s.writeJSON(w, http.StatusCreated, ClusterShareResponse{
		ID:     e.ID,
		Node:   s.cluster.Self(),
		Seed:   e.Seed,
		Design: designResponse(design),
	})
}

// handleClusterAccess serves one wearout-consuming access against the
// architecture guarding one share this node owns. It is the cluster
// read path's entire server half: no peer traffic, no coordinator —
// the node's own WAL logs-ahead the wear on its share, and the global
// budget emerges from k such independent local budgets. Misrouted
// requests are 421 (ring disagreement), unknown shares 404; everything
// after the lookup is the standard access pipeline, resilience
// envelope and outcome metrics included.
func (s *Server) handleClusterAccess(w http.ResponseWriter, r *http.Request) {
	if s.refuseDegraded(w) {
		return
	}
	var req ClusterAccessRequest
	if err := decodeJSON(r, &req, false); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if !s.validateClusterPlacement(w, req.ClusterID, req.ShareIndex, req.ShareTotal) {
		return
	}
	e, ok := s.reg.Get(cluster.ShareID(req.ClusterID, req.ShareIndex))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown share"})
		return
	}
	s.serveAccess(w, r, e, req.TempCelsius, func(payload []byte, total, okCount uint64) any {
		return ClusterAccessResponse{
			Node:       s.cluster.Self(),
			ShareHex:   hex.EncodeToString(payload),
			Attempts:   total,
			Successful: okCount,
		}
	})
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
