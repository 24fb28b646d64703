package cluster_test

import (
	"strings"
	"testing"

	"lemonade/internal/cluster"
)

func TestShareIDRoundTrip(t *testing.T) {
	cases := []struct {
		clusterID string
		idx       int
		want      string
	}{
		{"arch-000001", 0, "arch-000001@s0"},
		{"arch-000042", 7, "arch-000042@s7"},
		{"arch-999999", 254, "arch-999999@s254"},
	}
	for _, tc := range cases {
		id := cluster.ShareID(tc.clusterID, tc.idx)
		if id != tc.want {
			t.Fatalf("ShareID(%q, %d) = %q, want %q", tc.clusterID, tc.idx, id, tc.want)
		}
		if strings.ContainsAny(id, "#?/% ") {
			t.Fatalf("share ID %q is not URL-path-safe", id)
		}
	}
}

func TestEncodeDecodeShare(t *testing.T) {
	payload := cluster.EncodeShare(7, []byte{1, 2, 3})
	x, data, err := cluster.DecodeShare(payload)
	if err != nil || x != 7 || len(data) != 3 || data[0] != 1 || data[2] != 3 {
		t.Fatalf("round trip = (%d, %v, %v)", x, data, err)
	}
	for _, short := range [][]byte{nil, {}, {9}} {
		if _, _, err := cluster.DecodeShare(short); err == nil {
			t.Fatalf("DecodeShare(%v) accepted a truncated payload", short)
		}
	}
}

func TestNewNodeValidation(t *testing.T) {
	urls := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	if _, err := cluster.NewNode(cluster.Config{Self: "zz", Nodes: urls, Seed: 1}); err == nil {
		t.Fatal("self outside the ring accepted")
	}
	if _, err := cluster.NewNode(cluster.Config{Nodes: map[string]string{"a": ""}, Seed: 1}); err == nil {
		t.Fatal("node without URL accepted")
	}
	n, err := cluster.NewNode(cluster.Config{Self: "a", Nodes: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.Self() != "a" || n.Ring().Size() != 3 {
		t.Fatalf("identity accessors wrong: self=%q ring size=%d", n.Self(), n.Ring().Size())
	}
	// A pure client (empty Self) may still place.
	c, err := cluster.NewNode(cluster.Config{Nodes: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if owners, err := c.Ring().Owners("arch-000001", 3); err != nil || len(owners) != 3 || c.Self() != "" {
		t.Fatalf("pure client: self=%q owners=%v err=%v", c.Self(), owners, err)
	}
}
