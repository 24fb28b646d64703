package api

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lemonade/internal/cluster"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
)

// fakeNode is one scripted cluster member: it owns a set of shares and
// serves POST /v1/architectures/{id}/access from them, with an optional
// per-node behavior override. It counts how often it is asked, because
// "each owner asked at most once per call" is a wear guarantee, not a
// perf nicety.
type fakeNode struct {
	name   string
	srv    *httptest.Server
	hits   atomic.Int64
	shares map[int]shamir.Share // share index -> share
	// behave, when non-nil, runs instead of the default share reply;
	// idx is the share index the request's architecture ID names.
	behave func(w http.ResponseWriter, r *http.Request, idx int)
}

func (f *fakeNode) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/architectures/{id}/access", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		// Reading the body to EOF is also what lets the server notice a
		// client that cancels (the straggler tests rely on it).
		var req AccessRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		_, num, _ := strings.Cut(r.PathValue("id"), "@s")
		idx, err := strconv.Atoi(num)
		if err != nil {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		if f.behave != nil {
			f.behave(w, r, idx)
			return
		}
		f.reply(w, idx)
	})
	return mux
}

func (f *fakeNode) reply(w http.ResponseWriter, idx int) {
	sh, ok := f.shares[idx]
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "unknown architecture"})
		return
	}
	json.NewEncoder(w).Encode(AccessResponse{
		SecretHex: hex.EncodeToString(cluster.EncodeShare(sh.X, sh.Data)),
	})
}

// fakeCluster splits secret k-of-n across three scripted nodes placed
// by the real ring, and returns the nodes keyed by name plus the owner
// order for the given cluster ID.
func fakeCluster(t *testing.T, id string, secret []byte, k, n int) (map[string]*fakeNode, []string, map[string]string) {
	t.Helper()
	nodes := map[string]*fakeNode{}
	urls := map[string]string{}
	for _, name := range []string{"n0", "n1", "n2"} {
		f := &fakeNode{name: name, shares: map[int]shamir.Share{}}
		f.srv = httptest.NewServer(f.handler())
		t.Cleanup(f.srv.Close)
		nodes[name] = f
		urls[name] = f.srv.URL
	}
	ring, err := cluster.NewRing([]string{"n0", "n1", "n2"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	owners, err := ring.Owners(id, n)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := shamir.Split(secret, k, n, rng.New(7).Derive("test/split"))
	if err != nil {
		t.Fatal(err)
	}
	for i, owner := range owners {
		nodes[owner].shares[i] = shares[i]
	}
	return nodes, owners, urls
}

// TestClusterHedgeFiresAfterDelay pins the hedged-fetch contract end to
// end: a slow owner does not stall the access (the spare is consulted
// after exactly the configured hedge delay), the first k shares win,
// the straggler's request is cancelled — and the slow owner was asked
// exactly once, so losing the race never costs duplicate wear.
func TestClusterHedgeFiresAfterDelay(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	nodes, owners, urls := fakeCluster(t, id, secret, 2, 3)

	release := make(chan struct{})
	cancelled := make(chan struct{})
	arrived := make(chan struct{})
	nodes[owners[0]].behave = func(w http.ResponseWriter, r *http.Request, idx int) {
		close(arrived)
		select {
		case <-r.Context().Done():
			close(cancelled)
		case <-release:
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	defer close(release)
	// The other owners answer only once the slow owner holds its request:
	// otherwise the k winners can land before the straggler's request
	// leaves the client, and cancelling it then never reaches the node.
	for _, name := range owners[1:] {
		f := nodes[name]
		f.behave = func(w http.ResponseWriter, r *http.Request, idx int) {
			select {
			case <-arrived:
				f.reply(w, idx)
			case <-r.Context().Done():
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		}
	}

	const hedge = 50 * time.Millisecond
	cc, err := NewClusterClient(urls, 42, WithHedgeDelay(hedge))
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic hedging: the hedge sleep records each requested wait
	// and returns immediately, so the test never waits wall-clock time.
	var mu sync.Mutex
	var slept []time.Duration
	record := func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	cc.sleep = record
	if err := cc.RegisterCluster(id, 2, 3); err != nil {
		t.Fatal(err)
	}

	res, err := cc.Access(context.Background(), id, AccessRequest{})
	if err != nil {
		t.Fatalf("hedged access failed: %v", err)
	}
	if res.SecretHex != hex.EncodeToString(secret) {
		t.Fatalf("reconstructed %q, want %q", res.SecretHex, hex.EncodeToString(secret))
	}
	if len(res.Served) != 2 {
		t.Fatalf("Served = %v, want 2 winners", res.Served)
	}
	for _, n := range res.Served {
		if n == owners[0] {
			t.Fatalf("slow owner %q listed among winners %v", owners[0], res.Served)
		}
	}
	mu.Lock()
	sawHedge := false
	for _, d := range slept {
		if d == hedge {
			sawHedge = true
		}
	}
	mu.Unlock()
	if !sawHedge {
		t.Fatalf("hedge delay %v never went through the hedge sleep: %v", hedge, slept)
	}
	// First k wins must cancel the straggler...
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler request never cancelled after k shares won")
	}
	// ...and hedging must not have asked it a second time.
	if got := nodes[owners[0]].hits.Load(); got != 1 {
		t.Fatalf("slow owner asked %d times, want exactly 1 (duplicate wear)", got)
	}
	for _, name := range []string{owners[1], owners[2]} {
		if got := nodes[name].hits.Load(); got != 1 {
			t.Fatalf("owner %q asked %d times, want 1", name, got)
		}
	}
}

// TestClusterFailoverWithoutHedge pins the lazy-spare baseline: with
// hedging disabled, a failed owner triggers an instant spare launch —
// no hedge delay, no sleep at all — and every owner is still consulted
// at most once.
func TestClusterFailoverWithoutHedge(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{9, 9, 9, 9}
	nodes, owners, urls := fakeCluster(t, id, secret, 2, 3)
	nodes[owners[1]].behave = func(w http.ResponseWriter, r *http.Request, idx int) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "degraded"})
	}
	cc, err := NewClusterClient(urls, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sleeps atomic.Int64
	record := func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		return ctx.Err()
	}
	cc.sleep = record
	if err := cc.RegisterCluster(id, 2, 3); err != nil {
		t.Fatal(err)
	}
	res, err := cc.Access(context.Background(), id, AccessRequest{})
	if err != nil {
		t.Fatalf("failover access failed: %v", err)
	}
	if res.SecretHex != hex.EncodeToString(secret) {
		t.Fatal("failover reconstructed the wrong secret")
	}
	if n := sleeps.Load(); n != 0 {
		t.Fatalf("instant failover slept %d times, want 0", n)
	}
	for name, f := range nodes {
		if got := f.hits.Load(); got > 1 {
			t.Fatalf("owner %q asked %d times, want at most 1", name, got)
		}
	}
}

// TestClusterHedgeSleepCappedByContext: an hour-long hedge delay
// against a blocked owner must die with the caller's context, not wait
// out the delay.
func TestClusterHedgeSleepCappedByContext(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{4, 4, 4, 4}
	nodes, owners, urls := fakeCluster(t, id, secret, 1, 2)
	release := make(chan struct{})
	defer close(release)
	nodes[owners[0]].behave = func(w http.ResponseWriter, r *http.Request, idx int) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	cc, err := NewClusterClient(urls, 42, WithHedgeDelay(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.RegisterCluster(id, 1, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cc.Access(ctx, id, AccessRequest{})
	if err == nil {
		t.Fatal("access with a blocked sole owner succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("access outlived its 100ms deadline by %v — the hedge slept past the context", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) && !IsTransient(err) {
		t.Fatalf("want deadline or transient error, got %v", err)
	}
}

// TestClusterMalformedShareIs422 pins the decode-failure mapping for an
// owner that answers with a bad share: one whose length disagrees with
// the others, or one carrying another owner's X. Either fails the access
// as a 422 *Error — no panic, no garbled secret.
func TestClusterMalformedShareIs422(t *testing.T) {
	const id = "arch-000001"
	for _, tc := range []struct {
		name  string
		forge func(own, other shamir.Share) shamir.Share
	}{
		{"length", func(own, _ shamir.Share) shamir.Share {
			return shamir.Share{X: own.X, Data: append(bytes.Clone(own.Data), 0)}
		}},
		{"stolen-x", func(own, other shamir.Share) shamir.Share {
			return shamir.Share{X: other.X, Data: own.Data}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, owners, urls := fakeCluster(t, id, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 2, 3)
			bad := tc.forge(nodes[owners[1]].shares[1], nodes[owners[0]].shares[0])
			nodes[owners[1]].behave = func(w http.ResponseWriter, r *http.Request, idx int) {
				json.NewEncoder(w).Encode(AccessResponse{
					SecretHex: hex.EncodeToString(cluster.EncodeShare(bad.X, bad.Data)),
				})
			}
			cc, err := NewClusterClient(urls, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := cc.RegisterCluster(id, 2, 3); err != nil {
				t.Fatal(err)
			}
			res, err := cc.Access(context.Background(), id, AccessRequest{})
			var apiErr *Error
			if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("Access = %+v, %v; want a 422 *Error", res, err)
			}
		})
	}
}
