// Package metrics is a minimal, stdlib-only instrumentation library for
// the lemonaded server: counters, gauges and latency histograms collected
// into a Registry that renders the Prometheus text exposition format.
//
// The package never reads the wall clock — durations are observed by the
// caller and passed in as seconds. The daemon times requests with a real
// clock (commands may); library tests inject a fake one, so histogram
// contents stay deterministic under test. All metric operations are safe
// for concurrent use and lock-free on the hot paths (counters and gauges
// are single atomics; histograms take a short mutex).
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets spans 10µs to 10s — wide enough for an in-process
// architecture access (~µs) and a full design-space exploration (~s).
var DefLatencyBuckets = []float64{
	1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into cumulative buckets with fixed upper
// bounds, Prometheus-style.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds, immutable after construction; an implicit +Inf bucket follows
	counts []uint64  // guarded by mu; len(bounds)+1
	sum    float64   // guarded by mu
	count  uint64    // guarded by mu
}

// Observe records one value (for latency histograms, in seconds).
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// metric is anything that can render its sample lines.
type metric interface {
	writeSamples(w io.Writer, name, labels string) error
}

func (c *Counter) writeSamples(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
	return err
}

func (g *Gauge) writeSamples(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), g.Value())
	return err
}

func (h *Histogram) writeSamples(w io.Writer, name, labels string) error {
	h.mu.Lock()
	bounds := h.bounds
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		le := fmt.Sprintf(`le="%g"`, b)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(join(labels, le)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(join(labels, `le="+Inf"`)), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, braced(labels), sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), count)
	return err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func join(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// series is one labeled instance of a metric family.
type series struct {
	labels string
	m      metric
}

// family groups the series sharing a metric name.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds metric families and renders them in registration order,
// so scrapes are stable and the smoke tests can grep deterministically.
// It serves itself over HTTP as the /metrics handler.
type Registry struct {
	mu       sync.Mutex
	families []*family          // guarded by mu; registration order
	byName   map[string]*family // guarded by mu

	scrapeMu sync.Mutex
	onScrape []func() // guarded by scrapeMu
}

// OnScrape registers fn to run at the start of every WriteText, before
// any family is read, so series computed from state the registry does
// not own are refreshed once per scrape instead of on every change.
// Scrapes run their hooks one at a time; fn may register and update
// metrics of r.
func (r *Registry) OnScrape(fn func()) {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup returns the series for (name, labels), creating family and series
// through mk on first registration. Registering the same (name, labels)
// twice returns the original metric, so handlers can grab metrics lazily.
func (r *Registry) lookup(name, labels, help, typ string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	for _, s := range f.series {
		if s.labels == labels {
			return s.m
		}
	}
	s := &series{labels: labels, m: mk()}
	f.series = append(f.series, s)
	return s.m
}

// Counter registers (or retrieves) a counter. labels is a raw Prometheus
// label list like `outcome="success"`, or "" for none.
func (r *Registry) Counter(name, labels, help string) *Counter {
	return r.lookup(name, labels, help, "counter", func() metric { return &Counter{} }).(*Counter)
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	return r.lookup(name, labels, help, "gauge", func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or retrieves) a histogram with the given bucket
// upper bounds (nil means DefLatencyBuckets). Bounds are sorted; the +Inf
// bucket is implicit.
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	return r.lookup(name, labels, help, "histogram", func() metric {
		if bounds == nil {
			bounds = DefLatencyBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	}).(*Histogram)
}

// WriteText renders every family in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.scrapeMu.Lock()
	for _, fn := range r.onScrape {
		fn()
	}
	r.scrapeMu.Unlock()
	// Snapshot the families AND their series lists under the lock:
	// lookup appends to f.series concurrently, so iterating the live
	// slice outside r.mu would race with registration.
	type famSnapshot struct {
		name, help, typ string
		series          []*series
	}
	r.mu.Lock()
	fams := make([]famSnapshot, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, famSnapshot{
			name: f.name, help: f.help, typ: f.typ,
			series: append([]*series(nil), f.series...),
		})
	}
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := s.m.writeSamples(w, f.name, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// ServeHTTP implements http.Handler: the registry is its own /metrics
// endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, sb.String())
}
