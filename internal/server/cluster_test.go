package server

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"lemonade/internal/cluster"
)

// clusterTestServer mounts a Server with a 3-node ring identity. Only
// this node is real — peer URLs point nowhere, which is fine because
// a node never calls out to serve a share (no read-path coordinator).
func clusterTestServer(t *testing.T, self string) (*Server, *httptest.Server) {
	t.Helper()
	node, err := cluster.NewNode(cluster.Config{
		Self: self,
		Nodes: map[string]string{
			"n0": "http://unused-n0", "n1": "http://unused-n1", "n2": "http://unused-n2",
		},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int64
	s := New(Config{NowNanos: func() int64 { return ticks.Add(1_000_000) }, Cluster: node})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// shareOn returns which share index of clusterID the given node fronts
// on the canonical test ring, or -1 if it owns none of the n shares.
func shareOn(t *testing.T, self, clusterID string, n int) int {
	t.Helper()
	ring, err := cluster.NewRing([]string{"n0", "n1", "n2"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	owners, err := ring.Owners(clusterID, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range owners {
		if o == self {
			return i
		}
	}
	return -1
}

func clusterShareReq(clusterID string, idx int) ProvisionRequest {
	return ProvisionRequest{
		Spec:      goldenSpec,
		SecretHex: goldenSecretHex, // any well-formed payload; servers don't decode shares
		Seed:      7,
		Share:     &SharePlacement{ClusterID: clusterID, ShareIndex: idx, ShareTotal: 3},
	}
}

// shareAccessURL is the plain access route of one share architecture.
func shareAccessURL(base, clusterID string, idx int) string {
	return base + "/v1/architectures/" + cluster.ShareID(clusterID, idx) + "/access"
}

// TestClusterShareRoundTrip provisions this node's share of a 3-of-3
// split and accesses it until lockout: the per-share architecture is an
// ordinary limited-use architecture under a share-scoped ID.
func TestClusterShareRoundTrip(t *testing.T) {
	const self, clusterID = "n0", "arch-000001"
	_, ts := clusterTestServer(t, self)
	idx := shareOn(t, self, clusterID, 3)
	if idx < 0 {
		t.Fatalf("node %s owns no share of %s on the test ring", self, clusterID)
	}

	resp, body := postJSON(t, ts.URL+"/v1/architectures", clusterShareReq(clusterID, idx))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("provision: %d %s", resp.StatusCode, body)
	}
	var pr ProvisionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ID != cluster.ShareID(clusterID, idx) {
		t.Fatalf("share response = %+v", pr)
	}

	reveals := 0
	for i := 0; i < pr.Design.MaxAllowedAccesses*4; i++ {
		resp, body := postJSON(t, shareAccessURL(ts.URL, clusterID, idx), AccessRequest{})
		switch resp.StatusCode {
		case http.StatusOK:
			var ar AccessResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatal(err)
			}
			if ar.SecretHex != goldenSecretHex {
				t.Fatalf("access returned %+v", ar)
			}
			reveals++
		case http.StatusGone:
			if reveals == 0 {
				t.Fatal("share exhausted before serving once")
			}
			return
		case http.StatusServiceUnavailable, http.StatusUnprocessableEntity:
			// transient hardware noise / decode failure: no reveal, continue
		default:
			t.Fatalf("access: %d %s", resp.StatusCode, body)
		}
	}
	t.Fatal("share never locked out")
}

// TestClusterShareMisroute pins the misroute guards: a share posted to
// a node the ring does not name as its owner is refused as misdirected
// (421) — ring disagreement must fail loudly, not scatter shares — and
// an access to a share the node does not hold is 404, which the cluster
// client classifies like a 421.
func TestClusterShareMisroute(t *testing.T) {
	const self, clusterID = "n0", "arch-000001"
	_, ts := clusterTestServer(t, self)
	owned := shareOn(t, self, clusterID, 3)
	wrong := (owned + 1) % 3 // some index this node does not front

	resp, body := postJSON(t, ts.URL+"/v1/architectures", clusterShareReq(clusterID, wrong))
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted provision: %d %s, want 421", resp.StatusCode, body)
	}
	resp, body = postJSON(t, shareAccessURL(ts.URL, clusterID, wrong), AccessRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("misrouted access: %d %s, want 404", resp.StatusCode, body)
	}
}

// TestClusterShareDuplicate pins the 409 guard: re-provisioning an
// existing share ID must be refused (a second WAL provision record for
// the same ID would poison recovery).
func TestClusterShareDuplicate(t *testing.T) {
	const self, clusterID = "n0", "arch-000001"
	_, ts := clusterTestServer(t, self)
	idx := shareOn(t, self, clusterID, 3)

	if resp, body := postJSON(t, ts.URL+"/v1/architectures", clusterShareReq(clusterID, idx)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first provision: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/architectures", clusterShareReq(clusterID, idx))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate provision: %d %s, want 409", resp.StatusCode, body)
	}
}

// TestClusterAccessUnknownShare: accessing a share that was never
// provisioned here is 404 — the placement is right, the share is not.
func TestClusterAccessUnknownShare(t *testing.T) {
	const self, clusterID = "n0", "arch-000001"
	_, ts := clusterTestServer(t, self)
	idx := shareOn(t, self, clusterID, 3)
	resp, body := postJSON(t, shareAccessURL(ts.URL, clusterID, idx), AccessRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown share access: %d %s, want 404", resp.StatusCode, body)
	}
}

// TestClusterShareValidation sweeps the 400 guards of a share
// provision, each naming the offending field.
func TestClusterShareValidation(t *testing.T) {
	const self = "n0"
	s, ts := clusterTestServer(t, self)
	idx := shareOn(t, self, "arch-000001", 3)
	// Each case breaks one thing of a well-placed share provision.
	bad := []struct {
		name, field string
		mutate      func(r *ProvisionRequest)
	}{
		{"empty cluster ID", "cluster_id", func(r *ProvisionRequest) { r.Share.ClusterID = "" }},
		{"zero total", "share_total", func(r *ProvisionRequest) { r.Share.ShareTotal = 0 }},
		{"total > ring", "share_total", func(r *ProvisionRequest) { r.Share.ShareTotal = 99 }},
		{"index out of range", "share_index", func(r *ProvisionRequest) { r.Share.ShareIndex = 3 }},
		{"negative index", "share_index", func(r *ProvisionRequest) { r.Share.ShareIndex = -1 }},
		{"garbage hex", "secret_hex", func(r *ProvisionRequest) { r.SecretHex = "zz" }},
		{"1-byte payload (no data after the X byte)", "secret_hex", func(r *ProvisionRequest) { r.SecretHex = "01" }},
	}
	for _, tc := range bad {
		req := clusterShareReq("arch-000001", idx)
		tc.mutate(&req)
		resp, body := postJSON(t, ts.URL+"/v1/architectures", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Field != tc.field {
			t.Fatalf("%s: field %q (%v), want %q", tc.name, er.Field, err, tc.field)
		}
	}
	if n := s.Registry().Len(); n != 0 {
		t.Fatalf("refused shares registered %d architectures", n)
	}
}

// TestClusterRingEndpoint: every node publishes its identity and
// placement inputs so operators can diff rings across a fleet.
func TestClusterRingEndpoint(t *testing.T) {
	_, ts := clusterTestServer(t, "n1")
	resp, body := getJSON(t, ts.URL+"/v1/cluster/ring")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ring: %d %s", resp.StatusCode, body)
	}
	var rr RingResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Self != "n1" || rr.Seed != 42 || len(rr.Nodes) != 3 {
		t.Fatalf("ring response = %+v", rr)
	}
}

// TestClusterRoutesAbsentOutsideClusterMode: a single-node lemonaded
// mounts no ring endpoint and refuses a share placement with 400 before
// anything is registered.
func TestClusterRoutesAbsentOutsideClusterMode(t *testing.T) {
	s, ts := testServer(t)
	resp, body := getJSON(t, ts.URL+"/v1/cluster/ring")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster/ring on a non-cluster server: %d, want 404", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/architectures", clusterShareReq("arch-000001", 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("share placement on a non-cluster server: %d %s, want 400", resp.StatusCode, body)
	}
	if n := s.Registry().Len(); n != 0 {
		t.Fatalf("refused share registered %d architectures", n)
	}
}

// hexLen guards the test fixture itself: the golden payload must be
// decodable or the roundtrip test tests nothing.
func TestClusterFixtureSane(t *testing.T) {
	if _, err := hex.DecodeString(goldenSecretHex); err != nil {
		t.Fatal(err)
	}
	if shareOn(t, "n0", "arch-000001", 3) < 0 {
		t.Fatal("n0 owns nothing of arch-000001; pick a different fixture ID")
	}
}
