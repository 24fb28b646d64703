package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/resilience"
	"lemonade/internal/weibull"
)

// The wire types live in the public api package — the server aliases
// them so handlers and the conversion helpers below read naturally.
// Aliases (not definitions) guarantee the server can never drift from
// the published contract.
type (
	SpecRequest         = api.SpecRequest
	DesignResponse      = api.DesignResponse
	ProvisionRequest    = api.ProvisionRequest
	ProvisionResponse   = api.ProvisionResponse
	AccessRequest       = api.AccessRequest
	AccessResponse      = api.AccessResponse
	StressRequest       = api.StressRequest
	StressResponse      = api.StressResponse
	StatusResponse      = api.StatusResponse
	WearLevelingStatus  = api.WearLevelingStatus
	ArchitectureSummary = api.ArchitectureSummary
	ListResponse        = api.ListResponse
	EventsResponse      = api.EventsResponse
	ExploreResponse     = api.ExploreResponse
	FrontierResponse    = api.FrontierResponse
	ErrorResponse       = api.ErrorResponse
	SharePlacement      = api.SharePlacement
	RingResponse        = api.RingResponse
)

// specFromWire converts the wire form to a validated dse.Spec, applying
// the same defaulting as the CLI (99%/1% criteria when omitted).
// Validation happens here — before any search is paid for — and failures
// carry the offending field name.
func specFromWire(q SpecRequest) (dse.Spec, error) {
	crit := reliability.Criteria{MinWork: q.MinWork, MaxOverrun: q.MaxOverrun}
	if crit.MinWork == 0 {
		crit.MinWork = reliability.DefaultCriteria.MinWork
	}
	if crit.MaxOverrun == 0 {
		crit.MaxOverrun = reliability.DefaultCriteria.MaxOverrun
	}
	spec := dse.Spec{
		Dist:            weibull.Dist{Alpha: q.Alpha, Beta: q.Beta},
		Criteria:        crit,
		LAB:             q.LAB,
		UpperBound:      q.UpperBound,
		KFrac:           q.KFrac,
		ContinuousT:     q.ContinuousT,
		MaxPerStructure: q.MaxPerStructure,
	}
	if err := spec.Validate(); err != nil {
		return dse.Spec{}, err
	}
	return spec, nil
}

func designResponse(d dse.Design) DesignResponse {
	return DesignResponse{
		T:                     d.T,
		UpperT:                d.UpperT,
		N:                     d.N,
		K:                     d.K,
		Copies:                d.Copies,
		TotalDevices:          d.TotalDevices,
		GuaranteedMinAccesses: d.GuaranteedMinAccesses(),
		MaxAllowedAccesses:    d.MaxAllowedAccesses(),
		WorkProb:              d.WorkProb,
		OverrunProb:           d.OverrunProb,
	}
}

func eventResponse(ev core.AccessEvent) api.AccessEvent {
	return api.AccessEvent{
		Attempt:    ev.Attempt,
		Copy:       ev.Copy,
		Conducting: ev.Conducting,
		Outcome:    ev.Outcome.String(),
	}
}

// encodeFailedBody is the static 500 payload served when response
// marshaling itself fails — it must never need marshaling.
const encodeFailedBody = `{"error":"internal: response encoding failed"}` + "\n"

// writeJSON marshals v and writes it with the given status. The failure
// modes are deliberately distinguished: a marshal error is a server bug
// (counted in lemonaded_encode_failures_total, answered with a static
// 500), while a write error just means the client went away — the
// response is already committed, so there is nothing to serve and
// nothing to count as a server fault.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		s.mEncodeFailures.Inc()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, encodeFailedBody)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	body = append(body, '\n')
	_, _ = w.Write(body) // client gone; nothing to do
}

// writeError maps library sentinels onto HTTP status codes:
//
//	dse.ErrInvalidSpec  → 400 (with the offending field)
//	core.ErrExhausted   → 410 Gone — the budget is spent, forever
//	core.ErrDecodeFailed→ 422 — conducted but unreconstructable
//	dse.ErrInfeasible   → 409 — spec conflicts with device physics
//	registry.ErrExists  → 409 — share ID already provisioned
//	resilience.ErrOpen  → 503 + Retry-After — breaker open, degraded mode
//	resilience.ErrShed  → 503 + Retry-After — access queue full, shed
//	registry.ErrStore   → 500 — durability failed, access refused closed
//	core.ErrTransient   → 503 + retry — next copy takes over
//	context cancelled   → 499-style client-closed-request (as 503)
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var fe *dse.FieldError
	switch {
	case errors.As(err, &fe):
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fe.Err.Error(), Field: fe.Field})
	case errors.Is(err, dse.ErrInvalidSpec):
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	case errors.Is(err, core.ErrExhausted):
		s.writeJSON(w, http.StatusGone, ErrorResponse{Error: err.Error()})
	case errors.Is(err, core.ErrDecodeFailed):
		s.writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
	case errors.Is(err, dse.ErrInfeasible):
		s.writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
	case errors.Is(err, registry.ErrExists):
		s.writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
	// The resilience refusals come before ErrStore: an append the breaker
	// refused wraps both sentinels, and it is a fast, retryable 503 — not
	// a store fault (the store was never touched).
	case errors.Is(err, resilience.ErrOpen):
		w.Header().Set("Retry-After", strconv.Itoa(s.breakerRetryAfter()))
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Retry: true})
	case errors.Is(err, resilience.ErrShed):
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Retry: true})
	case errors.Is(err, registry.ErrStore):
		s.mStoreFailures.Inc()
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	case errors.Is(err, core.ErrTransient):
		w.Header().Set("Retry-After", "0")
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Retry: true})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Retry: true})
	default:
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
	}
}

// breakerRetryAfter picks the Retry-After for a breaker-refused request:
// the breaker's remaining cooldown, or 1s when it is already probing.
func (s *Server) breakerRetryAfter() int {
	if s.breaker != nil {
		if secs, degraded := s.breaker.Degraded(); degraded {
			return secs
		}
	}
	return 1
}

// decodeJSON decodes a request body into v. An empty body decodes the
// zero value when allowEmpty is set (used by /access, where the body is
// optional).
func decodeJSON(r *http.Request, v any, allowEmpty bool) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if len(body) == 0 {
		if allowEmpty {
			return nil
		}
		return errors.New("empty request body")
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding JSON: %w", err)
	}
	return nil
}
