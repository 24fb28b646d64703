package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lemonade/internal/registry"
)

// testServer returns a Server with a deterministic stepping clock (1ms
// per reading) mounted on an httptest server.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	var ticks atomic.Int64
	s := New(Config{NowNanos: func() int64 { return ticks.Add(1_000_000) }})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// goldenSpec is the small, fast design problem every determinism test
// provisions: mean lifetime 6 cycles, LAB 30, 10% encoding.
var goldenSpec = SpecRequest{Alpha: 6, Beta: 8, LAB: 30, KFrac: 0.1, ContinuousT: true}

const goldenSecretHex = "00112233445566778899aabbccddeeff"

func provisionGolden(t *testing.T, baseURL string, seed uint64) ProvisionResponse {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: seed,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("provision: status %d: %s", resp.StatusCode, body)
	}
	var pr ProvisionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestGoldenDeterminismThroughHTTP pins that a fixed seed and a fixed
// access sequence produce bit-identical results through the full HTTP
// layer: same architecture ID, same secret on every success, and the
// same lockout point. If this fails, the serving stack has broken the
// determinism contract — treat like a golden-RNG failure, not a constant
// to bump casually.
func TestGoldenDeterminismThroughHTTP(t *testing.T) {
	// Golden values for seed 42 under goldenSpec. Derived once from the
	// deterministic simulation; any change is a breaking change.
	const (
		wantID         = "arch-000001"
		wantSuccesses  = 30
		wantTransients = 5
		wantAttempts   = 36 // successes + transients + the first exhausted probe
	)
	for run := 0; run < 2; run++ { // a fresh server replays identically
		_, ts := testServer(t)
		pr := provisionGolden(t, ts.URL, 42)
		if pr.ID != wantID {
			t.Fatalf("run %d: ID = %q, want %q", run, pr.ID, wantID)
		}
		successes, transients, attempts := 0, 0, 0
		for {
			attempts++
			resp, body := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
			if resp.StatusCode == http.StatusOK {
				var ar AccessResponse
				if err := json.Unmarshal(body, &ar); err != nil {
					t.Fatal(err)
				}
				if ar.SecretHex != goldenSecretHex {
					t.Fatalf("run %d: access %d returned secret %q, want %q",
						run, attempts, ar.SecretHex, goldenSecretHex)
				}
				successes++
				continue
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				transients++
				continue
			}
			if resp.StatusCode == http.StatusGone {
				break
			}
			t.Fatalf("run %d: unexpected status %d: %s", run, resp.StatusCode, body)
		}
		if successes != wantSuccesses || transients != wantTransients || attempts != wantAttempts {
			t.Fatalf("run %d: (successes, transients, attempts) = (%d, %d, %d), want (%d, %d, %d)",
				run, successes, transients, attempts, wantSuccesses, wantTransients, wantAttempts)
		}
		// The designed window brackets the observed lockout point.
		if successes < pr.Design.GuaranteedMinAccesses ||
			successes > pr.Design.MaxAllowedAccesses {
			t.Errorf("run %d: %d successes outside designed window [%d, %d]",
				run, successes, pr.Design.GuaranteedMinAccesses, pr.Design.MaxAllowedAccesses)
		}
		// Post-lockout the answer is 410, forever.
		for i := 0; i < 3; i++ {
			resp, _ := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
			if resp.StatusCode != http.StatusGone {
				t.Fatalf("run %d: post-lockout access %d: status %d, want 410", run, i, resp.StatusCode)
			}
		}
	}
}

// TestConcurrentAccessBudget hammers one architecture from many
// goroutines and checks the serving invariant: the hardware budget is
// consumed exactly once per success no matter how the requests race, and
// the server's counters agree with the architecture's own accounting.
func TestConcurrentAccessBudget(t *testing.T) {
	s, ts := testServer(t)
	pr := provisionGolden(t, ts.URL, 7)

	const workers = 16
	var successes, transients, lockouts atomic.Int64
	var wg sync.WaitGroup
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := client.Post(ts.URL+"/v1/architectures/"+pr.ID+"/access", "application/json", nil)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					successes.Add(1)
				case http.StatusServiceUnavailable:
					transients.Add(1)
				case http.StatusGone:
					lockouts.Add(1)
					return
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()

	e, ok := s.reg.Get(pr.ID)
	if !ok {
		t.Fatal("architecture vanished")
	}
	total, okCount := e.Arch.Accesses()
	if int64(okCount) != successes.Load() {
		t.Errorf("architecture counted %d successes, clients observed %d", okCount, successes.Load())
	}
	if got := int64(total); got != successes.Load()+transients.Load()+lockouts.Load() {
		t.Errorf("attempts %d != successes %d + transients %d + lockouts %d",
			got, successes.Load(), transients.Load(), lockouts.Load())
	}
	// The designed statistical window still bounds the concurrent total.
	if int(successes.Load()) > pr.Design.MaxAllowedAccesses+pr.Design.UpperT {
		t.Errorf("concurrent successes %d far exceed designed max %d",
			successes.Load(), pr.Design.MaxAllowedAccesses)
	}
	if e.Arch.Alive() {
		t.Error("architecture still alive after every worker saw lockout")
	}
	if s.mAccessSuccess.Value() != uint64(successes.Load()) {
		t.Errorf("metrics counted %d successes, clients observed %d",
			s.mAccessSuccess.Value(), successes.Load())
	}
	if s.mLockouts.Value() != uint64(lockouts.Load()) {
		t.Errorf("metrics counted %d lockouts, clients observed %d",
			s.mLockouts.Value(), lockouts.Load())
	}
}

// TestErrorStatusMapping exercises the typed-sentinel → HTTP mapping.
func TestErrorStatusMapping(t *testing.T) {
	_, ts := testServer(t)

	// Unknown architecture → 404.
	resp, _ := postJSON(t, ts.URL+"/v1/architectures/arch-999999/access", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// Invalid spec → 400 with the offending field.
	bad := goldenSpec
	bad.KFrac = 1.5
	resp, body := postJSON(t, ts.URL+"/v1/dse/explore", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec: status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Field != "KFrac" {
		t.Errorf("invalid spec: field %q, want KFrac (%s)", er.Field, body)
	}

	// Infeasible spec (criteria can never straddle) → 409.
	infeasible := SpecRequest{Alpha: 5, Beta: 0.5, LAB: 100000, KFrac: 0.9}
	resp, _ = postJSON(t, ts.URL+"/v1/dse/explore", infeasible)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("infeasible spec: status %d, want 409", resp.StatusCode)
	}

	// Exhausted architecture → 410 (drive a tiny one to lockout).
	pr := provisionGolden(t, ts.URL, 3)
	for i := 0; i < 10000; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
		if resp.StatusCode == http.StatusGone {
			break
		}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
	if resp.StatusCode != http.StatusGone {
		t.Errorf("exhausted: status %d, want 410", resp.StatusCode)
	}

	// Bad secret hex → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: "zz", Seed: 1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad secret: status %d, want 400", resp.StatusCode)
	}

	// Empty body on a body-required route → 400.
	resp, _ = postJSON(t, ts.URL+"/v1/dse/explore", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
}

// TestExploreCache checks the LRU + singleflight behavior through the
// HTTP layer: the second identical request is served from cache, and
// canonically equal specs share an entry.
func TestExploreCache(t *testing.T) {
	s, ts := testServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/dse/explore", goldenSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: status %d: %s", resp.StatusCode, body)
	}
	var first ExploreResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first explore claims cached")
	}

	_, body = postJSON(t, ts.URL+"/v1/dse/explore", goldenSpec)
	var second ExploreResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical explore was not served from cache")
	}
	if first.Design != second.Design {
		t.Errorf("cached design differs: %+v vs %+v", first.Design, second.Design)
	}

	// A spec differing only in defaulted fields canonicalizes to the
	// same cache key: explicit UpperBound == LAB is the default.
	canon := goldenSpec
	canon.UpperBound = canon.LAB
	_, body = postJSON(t, ts.URL+"/v1/dse/explore", canon)
	var third ExploreResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Error("canonically-equal spec missed the cache")
	}

	if hits := s.mCacheHits.Value(); hits != 2 {
		t.Errorf("cache hits = %d, want 2", hits)
	}
	if misses := s.mCacheMisses.Value(); misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
}

// TestMetricsEndpoint provisions, accesses to lockout, and checks the
// scrape reflects it — the in-process version of the CI smoke test.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	pr := provisionGolden(t, ts.URL, 42)
	for i := 0; i < 10000; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
		if resp.StatusCode == http.StatusGone {
			break
		}
	}
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		"lemonaded_lockouts_total 1",
		`lemonaded_accesses_total{outcome="success"} 30`,
		"lemonaded_architectures_provisioned_total 1",
		"lemonaded_architectures_live 1",
		`lemonaded_requests_total{route="access"}`,
		`lemonaded_request_duration_seconds_count{route="access"}`,
		`lemonaded_responses_total{route="access",code="410"} 1`,
		"lemonaded_inflight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestStatusEndpoint checks the read-only wearout view.
func TestStatusEndpoint(t *testing.T) {
	_, ts := testServer(t)
	pr := provisionGolden(t, ts.URL, 42)
	postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
	resp, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d: %s", resp.StatusCode, body)
	}
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Alive || st.Attempts != 1 || st.Successful != 1 {
		t.Errorf("status = %+v, want alive with 1/1 accesses", st)
	}
	if st.Design.TotalDevices != pr.Design.TotalDevices {
		t.Errorf("status design diverges from provision design")
	}
	// Status does not consume wearout.
	resp, body = getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	var st2 StatusResponse
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Attempts != 1 {
		t.Errorf("status consumed an access: attempts = %d", st2.Attempts)
	}
}

// TestBodyCap pins the 1 MiB request-body cap: a 2 MiB body is refused
// with 400 before it reaches the registry. The oversized bodies are
// valid JSON (a real request padded with whitespace), so without the cap
// each would be served.
func TestBodyCap(t *testing.T) {
	s, ts := testServer(t)
	padded := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, bytes.Repeat([]byte(" "), 2<<20)...)
	}
	post := func(url string, body []byte) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	prov := ProvisionRequest{Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: 42}
	if code := post(ts.URL+"/v1/architectures", padded(prov)); code != http.StatusBadRequest {
		t.Fatalf("2 MiB provision: status %d, want 400", code)
	}
	if n := s.Registry().Len(); n != 0 {
		t.Fatalf("oversized provision registered %d architectures, want 0", n)
	}

	pr := provisionGolden(t, ts.URL, 42)
	if code := post(ts.URL+"/v1/architectures/"+pr.ID+"/access", padded(AccessRequest{})); code != http.StatusBadRequest {
		t.Fatalf("2 MiB access: status %d, want 400", code)
	}
	resp, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d: %s", resp.StatusCode, body)
	}
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 0 {
		t.Errorf("oversized access consumed wearout: attempts = %d, want 0", st.Attempts)
	}
}

// TestFrontierEndpoint checks enumeration and the limit parameter.
func TestFrontierEndpoint(t *testing.T) {
	_, ts := testServer(t)
	req := SpecRequest{Alpha: 8, Beta: 12, LAB: 500} // unencoded: multi-point frontier
	resp, body := postJSON(t, ts.URL+"/v1/dse/frontier", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier: status %d: %s", resp.StatusCode, body)
	}
	var fr FrontierResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Count < 2 || len(fr.Designs) != fr.Count {
		t.Errorf("frontier = %d designs shown of %d, want all shown", len(fr.Designs), fr.Count)
	}
	// The limit query trims the response but reports the full count.
	resp, body = postJSON(t, ts.URL+"/v1/dse/frontier?limit=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier limit=1: status %d: %s", resp.StatusCode, body)
	}
	var trimmed FrontierResponse
	if err := json.Unmarshal(body, &trimmed); err != nil {
		t.Fatal(err)
	}
	if trimmed.Count != fr.Count || len(trimmed.Designs) != 1 {
		t.Errorf("frontier limit=1 = %d shown of %d, want 1 of %d",
			len(trimmed.Designs), trimmed.Count, fr.Count)
	}
	for i := 1; i < len(fr.Designs); i++ {
		if fr.Designs[i].TotalDevices < fr.Designs[i-1].TotalDevices {
			t.Error("frontier not sorted by total devices")
		}
	}
	// A malformed limit is refused before the search runs: on an
	// infeasible spec the answer is 400 for the limit, not 409 for the
	// spec.
	infeasible := SpecRequest{Alpha: 10, Beta: 1, LAB: 1000}
	if resp, body := postJSON(t, ts.URL+"/v1/dse/frontier", infeasible); resp.StatusCode != http.StatusConflict {
		t.Fatalf("infeasible frontier: status %d, want 409: %s", resp.StatusCode, body)
	}
	for _, q := range []string{"0", "-1", "x"} {
		resp, body := postJSON(t, ts.URL+"/v1/dse/frontier?limit="+q, infeasible)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("infeasible frontier limit=%s: status %d, want 400: %s", q, resp.StatusCode, body)
		}
	}
}

// TestProvisionSecretRoundTrip checks arbitrary secrets survive the hex
// round trip through provisioning and access.
func TestProvisionSecretRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	secret := []byte("attack at dawn — key #9")
	resp, body := postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: hex.EncodeToString(secret), Seed: 11,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("provision: %d: %s", resp.StatusCode, body)
	}
	var pr ProvisionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("access %d: %d: %s", i, resp.StatusCode, body)
		}
		var ar AccessResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		got, err := hex.DecodeString(ar.SecretHex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("access %d returned %q, want %q", i, got, secret)
		}
	}
}

// TestHealthz is the liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

func ExampleServer() {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := http.Post(ts.URL+"/v1/dse/explore", "application/json",
		strings.NewReader(`{"alpha": 6, "beta": 8, "lab": 30, "kfrac": 0.1}`))
	fmt.Println(resp.StatusCode)
	// Output: 200
}

// flakyStore is a registry.Store whose appends can be made to fail, for
// exercising the fail-closed path through HTTP.
type flakyStore struct{ fail atomic.Bool }

func (f *flakyStore) Append([]registry.Record) (registry.Ticket, error) {
	if f.fail.Load() {
		return nil, errors.New("disk full")
	}
	return readyTicket{}, nil
}

// TestStoreFailureFailsClosed: when the durable store cannot record an
// operation, the server answers 500, consumes nothing, and counts the
// refusal — the log-ahead rule seen from the outside.
func TestStoreFailureFailsClosed(t *testing.T) {
	st := &flakyStore{}
	s := New(Config{Registry: registry.NewWithStore(0, st)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	pr := provisionGolden(t, ts.URL, 42)
	resp, _ := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy access: status %d", resp.StatusCode)
	}

	st.fail.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("access with failing store: status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "store") {
		t.Errorf("error body %q does not mention the store", er.Error)
	}
	if s.mStoreFailures.Value() != 1 {
		t.Errorf("store failures counter = %d, want 1", s.mStoreFailures.Value())
	}
	// Nothing was consumed: the architecture still reports 1 attempt.
	e, _ := s.reg.Get(pr.ID)
	if total, _ := e.Arch.Accesses(); total != 1 {
		t.Errorf("failed-closed access consumed wearout: total = %d, want 1", total)
	}

	// Provisioning fails closed the same way.
	resp, _ = postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: 9,
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("provision with failing store: status %d", resp.StatusCode)
	}
	st.fail.Store(false)
	resp, _ = postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("access after store recovers: status %d", resp.StatusCode)
	}
}

// TestWriteJSONEncodeFailure pins the marshal-failure path: a value JSON
// cannot represent yields the static 500 body and bumps the counter —
// distinguished from a client that merely went away.
func TestWriteJSONEncodeFailure(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, math.NaN()) // JSON has no NaN
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if got := rec.Body.String(); got != encodeFailedBody {
		t.Errorf("body = %q, want the static encode-failure payload", got)
	}
	if s.mEncodeFailures.Value() != 1 {
		t.Errorf("encode failures counter = %d, want 1", s.mEncodeFailures.Value())
	}

	// A client disconnect is not an encode failure.
	s.writeJSON(&brokenWriter{}, http.StatusOK, map[string]string{"ok": "yes"})
	if s.mEncodeFailures.Value() != 1 {
		t.Errorf("client-gone write counted as encode failure")
	}
}

// brokenWriter fails every write, like a hung-up client connection.
type brokenWriter struct{ h http.Header }

func (b *brokenWriter) Header() http.Header {
	if b.h == nil {
		b.h = make(http.Header)
	}
	return b.h
}
func (b *brokenWriter) WriteHeader(int) {}
func (b *brokenWriter) Write([]byte) (int, error) {
	return 0, errors.New("broken pipe")
}

// TestListEndpoint checks pagination, ordering, and the cursor contract.
func TestListEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var want []string
	for i := 0; i < 5; i++ {
		want = append(want, provisionGolden(t, ts.URL, uint64(i)).ID)
	}

	// Full listing, deterministic order.
	resp, body := getJSON(t, ts.URL+"/v1/architectures")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d: %s", resp.StatusCode, body)
	}
	var all ListResponse
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Architectures) != 5 || all.NextAfterID != "" {
		t.Fatalf("list = %d rows, next %q; want 5 rows, no cursor", len(all.Architectures), all.NextAfterID)
	}
	for i, a := range all.Architectures {
		if a.ID != want[i] {
			t.Errorf("row %d = %q, want %q (deterministic ID order)", i, a.ID, want[i])
		}
		if !a.Alive {
			t.Errorf("row %d not alive", i)
		}
	}

	// Paged walk: limit 2 pages through everything, cursor per page.
	var got []string
	after := ""
	for pages := 0; pages < 10; pages++ {
		url := ts.URL + "/v1/architectures?limit=2"
		if after != "" {
			url += "&after_id=" + after
		}
		_, body := getJSON(t, url)
		var page ListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		for _, a := range page.Architectures {
			got = append(got, a.ID)
		}
		if page.NextAfterID == "" {
			break
		}
		after = page.NextAfterID
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged walk = %v, want %v", got, want)
	}

	// Bad limit → 400.
	resp, _ = getJSON(t, ts.URL+"/v1/architectures?limit=banana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", resp.StatusCode)
	}
}

// TestEventsEndpoint checks the recent-events ring through HTTP.
func TestEventsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	pr := provisionGolden(t, ts.URL, 42)
	for i := 0; i < 7; i++ {
		postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)
	}
	resp, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d: %s", resp.StatusCode, body)
	}
	var evs EventsResponse
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if evs.ID != pr.ID || len(evs.Events) != 7 {
		t.Fatalf("events = %d for %q, want 7 for %q", len(evs.Events), evs.ID, pr.ID)
	}
	for i, ev := range evs.Events {
		if ev.Attempt != uint64(i+1) {
			t.Errorf("event %d attempt = %d, want %d (oldest first)", i, ev.Attempt, i+1)
		}
		if ev.Outcome == "" || ev.Outcome == "unknown" {
			t.Errorf("event %d outcome = %q", i, ev.Outcome)
		}
	}

	// max trims to the newest events.
	_, body = getJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/events?max=3")
	var trimmed EventsResponse
	if err := json.Unmarshal(body, &trimmed); err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Events) != 3 || trimmed.Events[2].Attempt != 7 {
		t.Errorf("events max=3 = %+v, want the 3 newest ending at attempt 7", trimmed.Events)
	}

	// Unknown architecture → 404.
	resp, _ = getJSON(t, ts.URL+"/v1/architectures/arch-999999/events")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id events: status %d, want 404", resp.StatusCode)
	}
}
