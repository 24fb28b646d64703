package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func newTestClient(t *testing.T, h http.Handler, opts ...Option) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c, err := NewClient(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("ftp://example.com"); err == nil {
		t.Error("NewClient accepted a non-http scheme")
	}
	if _, err := NewClient("://bad"); err == nil {
		t.Error("NewClient accepted an unparseable URL")
	}
	c, err := NewClient("http://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if c.base != "http://example.com" {
		t.Errorf("base = %q, want trailing slash trimmed", c.base)
	}
}

func TestTypedRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/architectures", func(w http.ResponseWriter, r *http.Request) {
		var req ProvisionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding provision request: %v", err)
		}
		if req.Seed != 42 || req.Spec.LAB != 30 {
			t.Errorf("provision request = %+v", req)
		}
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(ProvisionResponse{ID: "arch-000001", Seed: req.Seed})
	})
	mux.HandleFunc("GET /v1/architectures/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "arch-000001" || r.URL.Query().Get("max") != "5" {
			t.Errorf("events request: id=%q query=%v", r.PathValue("id"), r.URL.Query())
		}
		_ = json.NewEncoder(w).Encode(EventsResponse{
			ID:     "arch-000001",
			Events: []AccessEvent{{Attempt: 1, Outcome: "success"}},
		})
	})
	c, _ := newTestClient(t, mux)

	prov, err := c.Provision(context.Background(), ProvisionRequest{
		Spec: SpecRequest{Alpha: 6, Beta: 8, LAB: 30}, SecretHex: "ff", Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prov.ID != "arch-000001" {
		t.Errorf("provision ID = %q", prov.ID)
	}

	evs, err := c.Events(context.Background(), "arch-000001", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) != 1 || evs.Events[0].Outcome != "success" {
		t.Errorf("events = %+v", evs)
	}
}

func TestErrorClassification(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/gone", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGone)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "exhausted"})
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "unknown architecture"})
	})
	mux.HandleFunc("/bad", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "alpha must be positive", Field: "alpha"})
	})
	c, _ := newTestClient(t, mux)

	_, err := c.do(context.Background(), http.MethodGet, "/gone", nil, nil)
	if !IsExhausted(err) || IsTransient(err) {
		t.Errorf("410: IsExhausted=%t IsTransient=%t", IsExhausted(err), IsTransient(err))
	}
	var ae *Error
	_, err = c.do(context.Background(), http.MethodGet, "/missing", nil, nil)
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusNotFound || IsExhausted(err) || IsTransient(err) {
		t.Errorf("404 error = %v", err)
	}
	_, err = c.do(context.Background(), http.MethodGet, "/bad", nil, nil)
	if !asAPIError(err, &ae) || ae.Field != "alpha" || ae.StatusCode != http.StatusBadRequest {
		t.Errorf("400 error = %v", err)
	}
}

// TestMetricsText: the exposition comes back verbatim, and a failed
// scrape is an *Error carrying the trimmed plain-text body.
func TestMetricsText(t *testing.T) {
	const exposition = "# TYPE x counter\nx 1\n"
	var fail atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/metrics" {
			t.Errorf("scrape = %s %s", r.Method, r.URL.Path)
		}
		if fail.Load() {
			http.Error(w, "  registry closed ", http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, exposition)
	})
	c, _ := newTestClient(t, h)
	text, err := c.MetricsText(context.Background())
	if err != nil || text != exposition {
		t.Fatalf("MetricsText = %q, %v", text, err)
	}
	fail.Store(true)
	var ae *Error
	if _, err := c.MetricsText(context.Background()); !asAPIError(err, &ae) ||
		ae.StatusCode != http.StatusInternalServerError || ae.Message != "registry closed" {
		t.Fatalf("failed scrape error = %v", err)
	}
}

func asAPIError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// TestNoRetryByDefault: a 503 is returned to the caller after one call;
// retrying a transient refusal is the caller's decision.
func TestNoRetryByDefault(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "transient", Retry: true})
	})
	c, _ := newTestClient(t, h)
	if _, err := c.Access(context.Background(), "arch-000001", AccessRequest{}); !IsTransient(err) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1", calls.Load())
	}
}
