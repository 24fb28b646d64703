package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Error is the typed failure returned by every Client method when the
// server answered with a non-2xx status. It preserves the HTTP status
// and the decoded error body, so callers can branch on semantics
// (IsExhausted, IsTransient) instead of string-matching.
type Error struct {
	StatusCode int
	Message    string
	Field      string // offending field, for validation failures
	Retry      bool   // server says retrying may succeed
}

func (e *Error) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("api: %d: %s (field %s)", e.StatusCode, e.Message, e.Field)
	}
	return fmt.Sprintf("api: %d: %s", e.StatusCode, e.Message)
}

// IsExhausted reports whether err is the server refusing an access
// because the wearout budget is spent (HTTP 410) — the paper's lockout.
func IsExhausted(err error) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.StatusCode == http.StatusGone
}

// IsTransient reports whether err is a retryable failure (HTTP 503).
// The server answers 503 for every transient refusal: a copy died
// mid-access and the next takes over, the circuit breaker is open, the
// load-shedder rejected the request at the door, or the durable store
// wrapped a commit failure (ErrStore) — in all cases no wearout budget
// was consumed and retrying the same request may succeed.
func IsTransient(err error) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable
}

// Client is a typed client for the lemonaded HTTP API. Create with
// NewClient; the zero value is not usable. Methods are safe for
// concurrent use.
type Client struct {
	base  string
	httpc *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (e.g. to add a
// transport-level timeout or a test transport).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithTimeout sets a per-request timeout on the client's *http.Client.
// Apply it after WithHTTPClient if both are used.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.httpc.Timeout = d } }

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080").
func NewClient(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("api: invalid base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("api: base URL must be http or https, got %q", base)
	}
	c := &Client{
		base:  strings.TrimRight(base, "/"),
		httpc: &http.Client{},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Provision fabricates a new architecture.
func (c *Client) Provision(ctx context.Context, req ProvisionRequest) (*ProvisionResponse, error) {
	var out ProvisionResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/architectures", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Status reports an architecture's wearout state without consuming an
// access.
func (c *Client) Status(ctx context.Context, id string) (*StatusResponse, error) {
	var out StatusResponse
	if _, err := c.do(ctx, http.MethodGet, "/v1/architectures/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Access performs one real, wearout-consuming access.
func (c *Client) Access(ctx context.Context, id string, req AccessRequest) (*AccessResponse, error) {
	var out AccessResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/architectures/"+url.PathEscape(id)+"/access", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stress applies one adversarial stress burst: pulses × indices
// wearout-consuming actuations with no reconstruction attempt. The
// response never carries key material.
func (c *Client) Stress(ctx context.Context, id string, req StressRequest) (*StressResponse, error) {
	var out StressResponse
	if _, err := c.do(ctx, http.MethodPost, "/v1/architectures/"+url.PathEscape(id)+"/stress", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Events returns an architecture's recent access events, oldest first.
// max <= 0 means all buffered events.
func (c *Client) Events(ctx context.Context, id string, max int) (*EventsResponse, error) {
	path := "/v1/architectures/" + url.PathEscape(id) + "/events"
	if max > 0 {
		path += "?max=" + strconv.Itoa(max)
	}
	var out EventsResponse
	if _, err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the raw Prometheus exposition, for scripted
// assertions on counters.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	body, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil)
	return string(body), err
}

// do executes one API call: marshal, send, decode into out (skipped
// when out is nil). It returns the raw response body, for callers that
// want it undecoded. A non-2xx answer is an *Error whose message is the
// JSON error body's, or else the trimmed body text.
func (c *Client) do(ctx context.Context, method, path string, in, out any) ([]byte, error) {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("api: encoding request: %w", err)
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("api: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("api: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := &Error{StatusCode: resp.StatusCode}
		var eb ErrorResponse
		if jsonErr := json.Unmarshal(payload, &eb); jsonErr == nil && eb.Error != "" {
			ae.Message, ae.Field, ae.Retry = eb.Error, eb.Field, eb.Retry
		} else {
			ae.Message = strings.TrimSpace(string(payload))
		}
		return nil, ae
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return nil, fmt.Errorf("api: decoding %s %s response: %w", method, path, err)
		}
	}
	return payload, nil
}
