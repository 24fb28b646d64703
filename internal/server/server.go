// Package server implements lemonaded's HTTP API: a concurrent
// key-access service over the paper's limited-use architectures.
//
// The service provisions simulated architectures into a sharded registry
// and serves wearout-consuming accesses against them — the paper's two
// deployment stories (a smartphone unlock path, §4, and a targeting
// system answering repeated key-retrieval requests, §5) are both
// "many concurrent readers racing a hardware budget", which is exactly
// what the API exposes:
//
//	POST /v1/architectures             provision from a dse spec (explicit seed)
//	GET  /v1/architectures             page through the fleet (?after_id=, ?limit=)
//	GET  /v1/architectures/{id}        wearout status
//	POST /v1/architectures/{id}/access one real access (consumes wearout)
//	POST /v1/architectures/{id}/stress adversarial stress burst (consumes wearout, reveals no key)
//	GET  /v1/architectures/{id}/events recent access events (?max=)
//	POST /v1/dse/explore               cached design-space exploration
//	POST /v1/dse/frontier              full frontier (cancellable)
//	GET  /v1/cluster/ring              ring placement config (cluster mode only)
//	GET  /metrics                      Prometheus text exposition
//	GET  /healthz                      liveness ("degraded" while the breaker is open)
//
// Determinism through the HTTP layer is a feature, not an accident: every
// provision takes an explicit seed, registry IDs are sequential, and the
// design cache is keyed by canonicalized Specs whose searches are pure —
// so a fixed request sequence produces bit-identical responses, lockout
// points included (pinned by TestGoldenDeterminismThroughHTTP).
//
// The package never reads the wall clock (the lemonvet determinism
// contract): request latencies are measured against an injected
// nanosecond clock, supplied by the daemon from time.Now and by tests
// from a deterministic counter.
package server

import (
	"net/http"
	"strconv"
	"time"

	"lemonade/internal/cache"
	"lemonade/internal/cluster"
	"lemonade/internal/dse"
	"lemonade/internal/metrics"
	"lemonade/internal/registry"
	"lemonade/internal/resilience"
)

// Config parameterizes a Server. The zero value is usable: an in-memory
// registry and a null clock (all latencies observed as zero).
type Config struct {
	// Registry, when non-nil, is the architecture registry to serve from —
	// the daemon builds one over a WAL-backed store and recovers it before
	// the listener opens. Nil builds an in-memory registry (no
	// durability), which is what tests and ephemeral deployments want.
	Registry *registry.Registry
	// Metrics, when non-nil, is the metric registry to register into and
	// serve at /metrics — the daemon shares one registry between the WAL
	// store (opened before the server exists) and the server. Nil builds
	// a fresh registry.
	Metrics *metrics.Registry
	// NowNanos is the clock used for latency histograms, in nanoseconds
	// from an arbitrary origin. The daemon injects a monotonic wall
	// clock; tests inject a counter. Nil disables latency measurement.
	NowNanos func() int64
	// Breaker, when non-nil, is the circuit breaker wrapped around the
	// registry's durable store. The server consults it to refuse
	// state-changing requests fast while the store is sick (degraded
	// read-only mode: 503 + Retry-After) and to report "degraded" from
	// /healthz. The daemon builds it; nil means no degraded mode.
	Breaker *resilience.Breaker
	// Shedder, when non-nil, bounds concurrent access traffic; excess
	// requests are shed with 503 + Retry-After instead of queueing
	// without limit. Nil means no shedding.
	Shedder *resilience.Shedder
	// AccessTimeout, when > 0, is the per-request deadline applied to the
	// access path (queue wait included) so a slow store bounds latency
	// instead of pinning handlers forever.
	AccessTimeout time.Duration
	// Cluster, when non-nil, is this node's cluster identity — its name
	// and the placement ring. Setting it lets provisions carry a share
	// placement and mounts GET /v1/cluster/ring; nil serves a
	// single-node lemonade that refuses share placements.
	Cluster *cluster.Node
}

const (
	// designCacheSize caps the DSE design cache, in designs.
	designCacheSize = 256
	// maxBodyBytes caps request bodies.
	maxBodyBytes = 1 << 20
)

// Server is the lemonaded HTTP service. Create with New; it is an
// http.Handler via Handler().
type Server struct {
	reg     *registry.Registry
	designs *cache.Cache[dse.Design]
	met     *metrics.Registry // metric registry (reg is the architecture registry)
	now     func() int64
	mux     *http.ServeMux

	breaker       *resilience.Breaker
	shedder       *resilience.Shedder
	accessTimeout time.Duration
	cluster       *cluster.Node // nil outside cluster mode

	// Access outcomes, by terminal classification of one hardware access.
	mAccessSuccess *metrics.Counter
	mAccessTrans   *metrics.Counter
	mAccessExh     *metrics.Counter
	mAccessDecode  *metrics.Counter
	// Headline counter for the paper's security event: an access refused
	// because the hardware budget is spent.
	mLockouts *metrics.Counter
	// DSE cache effectiveness.
	mCacheHits, mCacheMisses *metrics.Counter
	// Fleet size.
	mProvisioned *metrics.Counter
	gLive        *metrics.Gauge
	// HTTP-level traffic.
	gInflight *metrics.Gauge
	// Server faults: responses that failed to marshal (a server bug, never
	// the client's) and operations refused because the durable store
	// could not record them (the log-ahead rule failing closed).
	mEncodeFailures *metrics.Counter
	mStoreFailures  *metrics.Counter
	// Adversarial wearout and the wear-leveling defense.
	mStressPulses *metrics.Counter
	mRemaps       *metrics.Counter
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	now := cfg.NowNanos
	if now == nil {
		now = func() int64 { return 0 }
	}
	reg := cfg.Registry
	if reg == nil {
		reg = registry.New(registry.DefaultShards)
	}
	m := cfg.Metrics
	if m == nil {
		m = metrics.NewRegistry()
	}
	s := &Server{
		reg:     reg,
		designs: cache.New[dse.Design](designCacheSize),
		met:     m,
		now:     now,

		breaker:       cfg.Breaker,
		shedder:       cfg.Shedder,
		accessTimeout: cfg.AccessTimeout,
		cluster:       cfg.Cluster,

		mAccessSuccess:  m.Counter("lemonaded_accesses_total", `outcome="success"`, "hardware accesses by outcome"),
		mAccessTrans:    m.Counter("lemonaded_accesses_total", `outcome="transient"`, "hardware accesses by outcome"),
		mAccessExh:      m.Counter("lemonaded_accesses_total", `outcome="exhausted"`, "hardware accesses by outcome"),
		mAccessDecode:   m.Counter("lemonaded_accesses_total", `outcome="decode_failed"`, "hardware accesses by outcome"),
		mLockouts:       m.Counter("lemonaded_lockouts_total", "", "accesses refused because the wearout budget is exhausted"),
		mCacheHits:      m.Counter("lemonaded_dse_cache_hits_total", "", "design searches served from cache"),
		mCacheMisses:    m.Counter("lemonaded_dse_cache_misses_total", "", "design searches computed"),
		mProvisioned:    m.Counter("lemonaded_architectures_provisioned_total", "", "architectures fabricated over process lifetime"),
		gLive:           m.Gauge("lemonaded_architectures_live", "", "architectures currently registered"),
		gInflight:       m.Gauge("lemonaded_inflight_requests", "", "HTTP requests currently being served"),
		mEncodeFailures: m.Counter("lemonaded_encode_failures_total", "", "responses that failed to marshal (server bug)"),
		mStoreFailures:  m.Counter("lemonaded_store_failures_total", "", "operations refused because the durable store failed (failed closed)"),
		mStressPulses:   m.Counter("lemonaded_stress_pulses_total", "", "adversarial stress pulses applied across the fleet"),
		mRemaps:         m.Counter("lemonaded_wearout_remaps_total", "", "wear-leveling rotations applied over the fleet's lifetime"),
	}
	m.OnScrape(s.scrapeWear)
	s.mux = http.NewServeMux()
	s.route("POST /v1/architectures", "provision", s.handleProvision)
	s.route("GET /v1/architectures", "list", s.handleList)
	s.route("GET /v1/architectures/{id}", "status", s.handleStatus)
	s.route("POST /v1/architectures/{id}/access", "access", s.handleAccess)
	s.route("POST /v1/architectures/{id}/stress", "stress", s.handleStress)
	s.route("GET /v1/architectures/{id}/events", "events", s.handleEvents)
	s.route("POST /v1/dse/explore", "explore", s.handleExplore)
	s.route("POST /v1/dse/frontier", "frontier", s.handleFrontier)
	if s.cluster != nil {
		s.route("GET /v1/cluster/ring", "cluster_ring", s.handleClusterRing)
	}
	s.mux.Handle("GET /metrics", m)
	// healthz reports "degraded" with 200 while the breaker is open —
	// the process is alive and serving reads, and an orchestrator that
	// kills it for a sick disk would only lose the in-memory fleet.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.breaker != nil && s.breaker.State() != resilience.StateClosed {
			_, _ = w.Write([]byte("degraded\n"))
			return
		}
		_, _ = w.Write([]byte("ok\n"))
	})
	return s
}

// Handler returns the root handler; mount it on an http.Server. Request
// draining on shutdown comes from http.Server.Shutdown, which stops the
// listener and waits for handlers to return.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the metric registry (the /metrics handler), mainly for
// the daemon to add process-level gauges and the WAL's instrumentation.
func (s *Server) Metrics() *metrics.Registry { return s.met }

// Registry exposes the architecture registry, for the daemon's snapshot
// loop (a snapshot captures the registry through the store's barrier).
func (s *Server) Registry() *registry.Registry { return s.reg }

// scrapeWear computes the wear-leveling series from the fleet, once per
// scrape, so no request pays for them: the lifetime rotation count summed
// over the fleet, and per leveled architecture its remaining spare
// switches and its wear skew (max−min wear over the active copy's
// serviceable pool, in milli-units because gauges are integral). Plain
// architectures export no gauges; they have no rotation story to observe.
func (s *Server) scrapeWear() {
	var remaps uint64
	s.reg.Range(func(e *registry.Entry) bool {
		if _, ok := e.Arch.Leveling(); !ok {
			return true
		}
		remaps += e.Arch.Remaps()
		label := `arch="` + e.ID + `"`
		s.met.Gauge("lemonaded_spares_remaining", label,
			"usable unassigned spare switches, by architecture").Set(int64(e.Arch.SparesRemaining()))
		s.met.Gauge("lemonaded_wear_skew_millis", label,
			"wear skew (max-min wear over the serviceable pool, x1000), by architecture").Set(int64(e.Arch.WearSkew() * 1000))
		return true
	})
	// Every architecture's count only grows and the fleet only grows, so
	// the sum never falls below what the counter already shows.
	if shown := s.mRemaps.Value(); remaps > shown {
		s.mRemaps.Add(remaps - shown)
	}
}

// route mounts an instrumented handler: per-route request counter and
// latency histogram, per-code response counter, global in-flight gauge.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	reqs := s.met.Counter("lemonaded_requests_total", `route="`+name+`"`, "HTTP requests by route")
	dur := s.met.Histogram("lemonaded_request_duration_seconds", `route="`+name+`"`,
		"request latency by route", nil)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.gInflight.Inc()
		defer s.gInflight.Dec()
		reqs.Inc()
		start := s.now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h(rec, r)
		dur.Observe(float64(s.now()-start) / 1e9)
		s.met.Counter("lemonaded_responses_total",
			`route="`+name+`",code="`+strconv.Itoa(rec.code)+`"`,
			"HTTP responses by route and status code").Inc()
	})
}

// statusRecorder captures the response status for the per-code counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// explore runs a validated spec through the design cache: identical Specs
// never recompute, and a stampede of identical in-flight searches
// collapses into one (singleflight).
func (s *Server) explore(spec dse.Spec) (dse.Design, bool, error) {
	d, hit, err := s.designs.Do(spec.CacheKey(), func() (dse.Design, error) {
		return dse.Explore(spec)
	})
	if hit {
		s.mCacheHits.Inc()
	} else {
		s.mCacheMisses.Inc()
	}
	return d, hit, err
}
