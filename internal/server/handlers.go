package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
)

// refuseDegraded answers 503 + Retry-After when the breaker has the
// daemon in degraded read-only mode. State-changing routes call it
// first, so a sick store costs one mutex peek instead of a doomed append
// per request; reads never call it.
func (s *Server) refuseDegraded(w http.ResponseWriter) bool {
	if s.breaker == nil {
		return false
	}
	secs, degraded := s.breaker.Degraded()
	if !degraded {
		return false
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error: "degraded mode: durable store unavailable, state changes refused (reads still served)",
		Retry: true,
	})
	return true
}

// maxSecretBytes bounds the protected secret; the paper's use cases carry
// 128–256-bit keys, so 4 KiB is already generous.
const maxSecretBytes = 4096

// Wear-leveling provisioning bounds: maxSpares caps the per-copy spare
// complement (fabrication cost scales with it), defaultRemapEpoch is the
// rotation schedule when the client asks for spares without one.
const (
	maxSpares         = 4096
	defaultRemapEpoch = 16
)

// maxStressPulses bounds one stress burst so a single request cannot pin
// a handler on millions of actuations; campaigns issue many requests,
// which is what the per-request metrics and the shedder are for.
const maxStressPulses = 10000

// defaultListLimit pages the fleet listing when the client does not ask
// for a size; maxListLimit bounds what it may ask for.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// handleProvision fabricates an architecture: solve the design problem
// (through the cache — fleets provision many identical devices), build
// the simulated hardware from the explicit seed, durably record it,
// register it. A provision whose record cannot be persisted fails closed
// with 500 — an architecture the log does not know about would resurrect
// with a fresh budget after a restart.
//
// A provision carrying a share placement fabricates the architecture
// guarding one share of a cluster architecture: the placement must name
// this node (validateClusterPlacement), the secret is the encoded share
// payload, and the entry is registered under the share's ID. A
// duplicate share ID (a retried or raced provision) is refused with 409
// before anything is logged.
func (s *Server) handleProvision(w http.ResponseWriter, r *http.Request) {
	if s.refuseDegraded(w) {
		return
	}
	var req ProvisionRequest
	if err := decodeJSON(r, &req, false); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	minSecret := 1
	if req.Share != nil {
		if !s.validateClusterPlacement(w, req.Share) {
			return
		}
		minSecret = 2 // a share payload is one X byte plus the data
	}
	secret, err := hex.DecodeString(req.SecretHex)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "secret_hex: " + err.Error(), Field: "secret_hex"})
		return
	}
	if len(secret) < minSecret || len(secret) > maxSecretBytes {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("secret_hex must encode %d..%d bytes, got %d", minSecret, maxSecretBytes, len(secret)),
			Field: "secret_hex",
		})
		return
	}
	spec, err := specFromWire(req.Spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	design, cached, err := s.explore(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var lv *core.Leveling
	if req.Spares != 0 || req.RemapEpoch != 0 {
		if req.Spares < 0 || req.Spares > maxSpares {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("spares must be 0..%d, got %d", maxSpares, req.Spares),
				Field: "spares",
			})
			return
		}
		epoch := req.RemapEpoch
		if epoch == 0 {
			epoch = defaultRemapEpoch
		}
		lv = &core.Leveling{Spares: req.Spares, Epoch: epoch}
	}
	var arch *core.Architecture
	if lv != nil {
		arch, err = core.BuildLeveled(design, secret, *lv, rng.New(req.Seed))
	} else {
		arch, err = core.Build(design, secret, rng.New(req.Seed))
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	var e *registry.Entry
	if req.Share != nil {
		e, err = s.reg.ProvisionShare(cluster.ShareID(req.Share.ClusterID, req.Share.ShareIndex), arch, req.Seed, secret)
	} else {
		e, err = s.reg.Provision(arch, req.Seed, secret)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.mProvisioned.Inc()
	s.gLive.Set(int64(s.reg.Len()))
	resp := ProvisionResponse{
		ID:     e.ID,
		Seed:   e.Seed,
		Cached: cached,
		Design: designResponse(design),
	}
	if lv != nil {
		resp.Spares, resp.RemapEpoch = lv.Spares, lv.Epoch
	}
	s.writeJSON(w, http.StatusCreated, resp)
}

// handleStatus reports wearout state without consuming an access.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown architecture"})
		return
	}
	total, okCount := e.Arch.Accesses()
	resp := StatusResponse{
		ID:              e.ID,
		Alive:           e.Arch.Alive(),
		Attempts:        total,
		Successful:      okCount,
		CurrentCopy:     e.Arch.CurrentCopy(),
		ExhaustedCopies: e.Arch.ExhaustedCopies(),
		Design:          designResponse(e.Arch.Design()),
	}
	if lv, ok := e.Arch.Leveling(); ok {
		resp.WearLeveling = &WearLevelingStatus{
			Spares:          lv.Spares,
			RemapEpoch:      lv.Epoch,
			Remaps:          e.Arch.Remaps(),
			SparesRemaining: e.Arch.SparesRemaining(),
			WearSkew:        e.Arch.WearSkew(),
			Stressed:        e.Arch.Stressed(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleAccess performs one real, wearout-consuming traversal of the
// architecture's switches, through the registry's log-ahead path: the
// access record is durably appended before any switch fires, and an
// access that cannot be recorded fails closed (500, nothing consumed,
// no key bytes revealed). Concurrent requests against one architecture
// serialize inside the entry — each one is a distinct physical access,
// so the sum of successes can never exceed the hardware budget.
func (s *Server) handleAccess(w http.ResponseWriter, r *http.Request) {
	if s.refuseDegraded(w) {
		return
	}
	e, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown architecture"})
		return
	}
	var req AccessRequest
	if err := decodeJSON(r, &req, true); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	ctx, done, ok := s.accessEnvelope(w, r)
	if !ok {
		return
	}
	defer done()
	secret, err := e.Access(ctx, tempEnv(req.TempCelsius))
	total, okCount := e.Arch.Accesses()
	s.countAccessOutcome(err)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, AccessResponse{
		SecretHex:  hex.EncodeToString(secret),
		Attempts:   total,
		Successful: okCount,
		Copy:       e.Arch.CurrentCopy(),
	})
}

// tempEnv is the environment a request's temperature selects; zero (the
// field's absence) means room temperature.
func tempEnv(tempC float64) nems.Environment {
	if tempC == 0 {
		return nems.RoomTemp
	}
	return nems.Environment{TempCelsius: tempC}
}

// accessEnvelope applies the access path's resilience envelope: a
// per-request deadline bounds how long a slow store can pin this
// handler, and the shedder bounds how many handlers a slow store can
// pin at once. Both refuse before any wearout is consumed, so shedding
// is always safe to retry. On ok the caller must defer done(); on !ok
// the refusal has already been written.
func (s *Server) accessEnvelope(w http.ResponseWriter, r *http.Request) (ctx context.Context, done func(), ok bool) {
	ctx = r.Context()
	cancel := context.CancelFunc(func() {})
	if s.accessTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.accessTimeout)
	}
	if s.shedder != nil {
		release, err := s.shedder.Acquire(ctx)
		if err != nil {
			cancel()
			s.writeError(w, err)
			return nil, nil, false
		}
		return ctx, func() { release(); cancel() }, true
	}
	return ctx, cancel, true
}

// countAccessOutcome bumps the per-outcome access counters (and the
// headline lockout counter) for one completed hardware access. Store
// failures and context cancellations consume no wearout and count
// nowhere.
func (s *Server) countAccessOutcome(err error) {
	switch {
	case err == nil:
		s.mAccessSuccess.Inc()
	case errors.Is(err, core.ErrExhausted):
		s.mAccessExh.Inc()
		s.mLockouts.Inc()
	case errors.Is(err, core.ErrDecodeFailed):
		s.mAccessDecode.Inc()
	case errors.Is(err, core.ErrTransient):
		s.mAccessTrans.Inc()
	}
}

// handleStress applies one adversarial stress burst: Pulses actuations
// of each listed share index under the request environment, through the
// registry's log-ahead path (the stress record is durable before any
// switch fires, so recovery replays the wear exactly). Stress shares the
// access path's resilience envelope — it consumes real wearout — but
// never attempts reconstruction, so the response carries no key bytes.
func (s *Server) handleStress(w http.ResponseWriter, r *http.Request) {
	if s.refuseDegraded(w) {
		return
	}
	e, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown architecture"})
		return
	}
	var req StressRequest
	if err := decodeJSON(r, &req, false); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if len(req.Indices) == 0 {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "indices must name at least one share", Field: "indices"})
		return
	}
	n := e.Arch.Design().N
	for _, idx := range req.Indices {
		if idx < 0 || idx >= n {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("index %d out of range [0, %d)", idx, n),
				Field: "indices",
			})
			return
		}
	}
	pulses := req.Pulses
	if pulses == 0 {
		pulses = 1
	}
	if pulses < 0 || pulses > maxStressPulses {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("pulses must be 1..%d, got %d", maxStressPulses, req.Pulses),
			Field: "pulses",
		})
		return
	}
	ctx, done, ok := s.accessEnvelope(w, r)
	if !ok {
		return
	}
	defer done()
	conducted, err := e.Stress(ctx, tempEnv(req.TempCelsius), req.Indices, pulses)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.mStressPulses.Add(uint64(pulses))
	s.writeJSON(w, http.StatusOK, StressResponse{
		Conducted: conducted,
		Pulses:    pulses,
		Stressed:  e.Arch.Stressed(),
		Remaps:    e.Arch.Remaps(),
	})
}

// handleList pages through the fleet in deterministic ascending ID
// order. ?after_id= is the cursor (exclusive), ?limit= the page size.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := defaultListLimit
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "limit must be a positive integer"})
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	afterID := r.URL.Query().Get("after_id")
	page := s.reg.List(afterID, limit)
	out := ListResponse{Architectures: make([]ArchitectureSummary, 0, len(page))}
	for _, e := range page {
		total, okCount := e.Arch.Accesses()
		out.Architectures = append(out.Architectures, ArchitectureSummary{
			ID:         e.ID,
			Alive:      e.Arch.Alive(),
			Attempts:   total,
			Successful: okCount,
		})
	}
	if len(page) == limit {
		last := page[len(page)-1].ID
		if more := s.reg.List(last, 1); len(more) > 0 {
			out.NextAfterID = last
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleEvents serves an architecture's recent access events, oldest
// first, from the entry's in-memory ring buffer. ?max= trims to the
// newest max events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown architecture"})
		return
	}
	max := 0
	if q := r.URL.Query().Get("max"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "max must be a positive integer"})
			return
		}
		max = n
	}
	evs := e.Events(max)
	out := EventsResponse{ID: e.ID, Events: make([]api.AccessEvent, 0, len(evs))}
	for _, ev := range evs {
		out.Events = append(out.Events, eventResponse(ev))
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleExplore answers a design search from the LRU cache; identical
// Specs (after canonicalization) never recompute, and concurrent
// identical searches collapse into one via singleflight.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req SpecRequest
	if err := decodeJSON(r, &req, false); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	spec, err := specFromWire(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	design, cached, err := s.explore(spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ExploreResponse{Cached: cached, Design: designResponse(design)})
}

// handleFrontier enumerates every feasible design. The enumeration is the
// expensive, cancellable path: it aborts between per-copy targets when
// the client disconnects or the server drains. ?limit= is validated
// before the search runs, so a malformed one costs nothing.
func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	limit := 0 // all designs
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	var req SpecRequest
	if err := decodeJSON(r, &req, false); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	spec, err := specFromWire(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	spec.ContinuousT = false // the frontier enumerates integer targets
	designs, err := dse.ExploreFrontier(r.Context(), spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if limit == 0 || limit > len(designs) {
		limit = len(designs)
	}
	out := FrontierResponse{Count: len(designs)}
	for _, d := range designs[:limit] {
		out.Designs = append(out.Designs, designResponse(d))
	}
	s.writeJSON(w, http.StatusOK, out)
}
