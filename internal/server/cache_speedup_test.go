package server

import (
	"net/http"
	"testing"
	"time"
)

// heavySpec is an expensive design problem: a continuous-t encoded search
// over a large access budget, the kind a fleet controller would issue
// repeatedly with identical parameters.
var heavySpec = SpecRequest{
	Alpha: 14, Beta: 8, LAB: 91250, KFrac: 0.1, ContinuousT: true,
}

// TestExploreCacheSpeedup is the ISSUE acceptance criterion: a repeated
// identical explore must be at least 10x faster than the cold search.
// The cold search here costs tens of milliseconds while a cache hit is
// a map lookup, so the margin is orders of magnitude in practice.
func TestExploreCacheSpeedup(t *testing.T) {
	_, ts := testServer(t)

	cold := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/dse/explore", heavySpec)
	coldDur := time.Since(cold)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold explore: status %d: %s", resp.StatusCode, body)
	}

	const warmRuns = 5
	warm := time.Now()
	for i := 0; i < warmRuns; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/dse/explore", heavySpec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm explore %d: status %d", i, resp.StatusCode)
		}
	}
	warmDur := time.Since(warm) / warmRuns

	t.Logf("cold = %v, warm = %v (%.0fx)", coldDur, warmDur, float64(coldDur)/float64(warmDur))
	if coldDur < 10*warmDur {
		t.Errorf("cache speedup %.1fx < 10x (cold %v, warm %v)",
			float64(coldDur)/float64(warmDur), coldDur, warmDur)
	}
}
