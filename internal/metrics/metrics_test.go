package metrics

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "", "total requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("inflight", "", "in-flight requests")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
	// Re-registering the same (name, labels) returns the same metric.
	if r.Counter("requests_total", "", "total requests") != c {
		t.Error("re-registration returned a different counter")
	}
}

// TestOnScrape: hooks run at the start of every scrape, before any
// family is read, so a series a hook registers or updates shows in that
// same scrape.
func TestOnScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("first_total", "", "")
	scrapes := 0
	r.OnScrape(func() {
		scrapes++
		r.Gauge("computed", `id="a"`, "set at scrape time").Set(int64(10 * scrapes))
	})
	for want := 1; want <= 2; want++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("computed{id=%q} %d\n", "a", 10*want); !strings.Contains(sb.String(), line) {
			t.Fatalf("scrape %d:\n%s\nwant the line %q", want, sb.String(), line)
		}
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	ok := r.Counter("accesses_total", `outcome="success"`, "accesses by outcome")
	bad := r.Counter("accesses_total", `outcome="exhausted"`, "accesses by outcome")
	if ok == bad {
		t.Fatal("distinct label sets must be distinct series")
	}
	ok.Add(3)
	bad.Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE accesses_total counter",
		`accesses_total{outcome="success"} 3`,
		`accesses_total{outcome="exhausted"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One family header, not one per series.
	if strings.Count(out, "# TYPE accesses_total") != 1 {
		t.Errorf("family header duplicated:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "", "request latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.5 + 0.5 + 5 + 50; h.Sum() != want {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryValues(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "", []float64{1, 2})
	h.Observe(1) // exactly on a bound counts into that bucket (le semantics)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `h_bucket{le="1"} 1`) || !strings.Contains(out, `h_bucket{le="2"} 2`) {
		t.Errorf("le boundary semantics wrong:\n%s", out)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "", "")
	h := r.Histogram("h", "", "", nil)
	g := r.Gauge("g", "", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || g.Value() != 8000 {
		t.Errorf("lost updates: c=%d h=%d g=%d", c.Value(), h.Count(), g.Value())
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("up", "", "1 if up").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "up 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}
