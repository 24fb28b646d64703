package harness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/fault"
	"lemonade/internal/metrics"
	"lemonade/internal/registry"
	"lemonade/internal/resilience"
	"lemonade/internal/server"
	"lemonade/internal/wal"
)

// The daemon's defaults (the `lemonaded serve` flag defaults). The
// benchmark composes the stack with exactly these, so it measures what an
// operator runs.
const (
	daemonSnapshotRecords  = 4096
	daemonBreakerThreshold = 5
	daemonBreakerCooldown  = 5 * time.Second
	daemonAccessTimeout    = 10 * time.Second
	daemonMaxAccess        = 256
	daemonAccessQueue      = 1024
)

// clientTimeout bounds one api call so a wedged stack fails the run
// instead of hanging it.
const clientTimeout = 30 * time.Second

// durableStore is one opened and recovered WAL under its breaker and
// registry, composed as `lemonaded serve -data-dir` does.
type durableStore struct {
	store   *wal.DiskStore
	breaker *resilience.Breaker
	reg     *registry.Registry
	stats   wal.RecoveryStats
}

// openDurable opens dir, wraps the store in the daemon's breaker, and
// recovers the registry from whatever the directory holds. With a tracer
// the fault.FS and registry.Store seams are wrapped.
func openDurable(dir string, now func() int64, met *metrics.Registry, tr *Tracer, node string) (*durableStore, error) {
	var fsys fault.FS = fault.OS{}
	if tr != nil {
		fsys = &traceFS{next: fsys, t: tr}
	}
	st, err := wal.Open(wal.Config{
		Dir:               dir,
		NowNanos:          now,
		Metrics:           met,
		SnapshotThreshold: daemonSnapshotRecords,
		FS:                fsys,
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Store:            st,
		FailureThreshold: daemonBreakerThreshold,
		Cooldown:         daemonBreakerCooldown,
		NowNanos:         now,
		Metrics:          met,
	})
	var rs registry.Store = br
	if tr != nil {
		rs = &traceStore{next: br, t: tr, node: node}
	}
	reg := registry.NewWithStore(0, rs)
	stats, err := st.Recover(reg)
	if err != nil {
		_ = st.Close()
		return nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return &durableStore{store: st, breaker: br, reg: reg, stats: stats}, nil
}

// nodeConfig selects one node's composition.
type nodeConfig struct {
	name    string
	dataDir string // "" = in-memory registry over registry.NullStore
	now     func() int64
	tracer  *Tracer
	cluster *cluster.Node
}

// node is one composed daemon: registry, server, optional WAL with its
// snapshot loop, and optional loopback listener.
type node struct {
	name    string
	srv     *server.Server
	durable *durableStore
	handler http.Handler

	snapStop   chan struct{}
	snapWG     sync.WaitGroup
	snapErrors atomic.Int64 // snapshots the WAL failed to write

	httpSrv *http.Server
	served  chan error
	base    string
}

// startNode composes a node the way `lemonaded serve` does.
func startNode(cfg nodeConfig) (*node, error) {
	met := metrics.NewRegistry()
	n := &node{name: cfg.name}
	var reg *registry.Registry
	var br *resilience.Breaker
	if cfg.dataDir != "" {
		d, err := openDurable(cfg.dataDir, cfg.now, met, cfg.tracer, cfg.name)
		if err != nil {
			return nil, err
		}
		n.durable, reg, br = d, d.reg, d.breaker
	} else {
		var rs registry.Store = registry.NullStore{}
		if cfg.tracer != nil {
			rs = &traceStore{next: rs, t: cfg.tracer, node: cfg.name}
		}
		reg = registry.NewWithStore(0, rs)
	}
	n.srv = server.New(server.Config{
		Registry: reg,
		Metrics:  met,
		NowNanos: cfg.now,
		Breaker:  br,
		Shedder: resilience.NewShedder(resilience.ShedderConfig{
			MaxConcurrent: daemonMaxAccess,
			MaxQueue:      daemonAccessQueue,
			Metrics:       met,
		}),
		AccessTimeout: daemonAccessTimeout,
		Cluster:       cfg.cluster,
	})
	n.handler = n.srv.Handler()
	if cfg.tracer != nil {
		n.handler = &traceHandler{next: n.handler, t: cfg.tracer, node: cfg.name}
	}
	if n.durable != nil {
		n.startSnapshots(cfg.now, cfg.tracer)
	}
	return n, nil
}

// startSnapshots runs the daemon's snapshot loop: compact whenever the
// WAL signals that the record threshold was crossed. (The daemon's
// one-minute interval never fires within a run.)
func (n *node) startSnapshots(now func() int64, tr *Tracer) {
	st := n.durable.store
	n.snapStop = make(chan struct{})
	n.snapWG.Add(1)
	go func() {
		defer n.snapWG.Done()
		for {
			select {
			case <-n.snapStop:
				return
			case <-st.SnapshotNeeded():
			}
			start := now()
			err := st.Snapshot(n.srv.Registry())
			if err != nil {
				n.snapErrors.Add(1)
			}
			if tr != nil {
				tr.add(Span{Layer: spanSnapshot, Seq: -1, Node: n.name, Start: start, End: now(), Err: err != nil})
			}
		}
	}()
}

// listen binds a loopback listener for the node; serve starts serving it.
func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	return ln, nil
}

func (n *node) serve(ln net.Listener) {
	n.base = "http://" + ln.Addr().String()
	n.httpSrv = &http.Server{Handler: n.handler}
	n.served = make(chan error, 1)
	go func() { n.served <- n.httpSrv.Serve(ln) }()
}

// stop drains the listener, stops the snapshot loop and closes the WAL.
// It writes no parting snapshot: the benchmark's shutdown is a crash as
// far as the data directory can tell.
func (n *node) stop(ctx context.Context) error {
	var errs []error
	if n.httpSrv != nil {
		if err := n.httpSrv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("draining %s: %w", n.name, err))
		}
		if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serving %s: %w", n.name, err))
		}
	}
	if n.snapStop != nil {
		close(n.snapStop)
		n.snapWG.Wait()
		n.snapStop = nil
	}
	if n.durable != nil {
		if err := n.durable.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing %s: %w", n.name, err))
		}
	}
	return errors.Join(errs...)
}

// handlerTransport is an in-process http.RoundTripper: it hands each
// request straight to the node's Handler().ServeHTTP. With no sockets and
// no connection cap, the schedule alone sets how many requests are in
// flight — and with it the WAL's group-commit batch size.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// loopbackTransport is a keep-alive transport capped at conns connections
// per node.
func loopbackTransport(conns int) *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
}

// tracedRoundTripper wraps rt when tr is set.
func tracedRoundTripper(rt http.RoundTripper, tr *Tracer, node func(host string) string) http.RoundTripper {
	if tr == nil {
		return rt
	}
	return &traceTransport{next: rt, t: tr, node: node}
}

// promSamples reads a Prometheus text exposition into series → value.
func promSamples(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// scrape sums the named series over every node's /metrics.
func scrape(ctx context.Context, clients []*api.Client, series ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(series))
	for _, c := range clients {
		text, err := c.MetricsText(ctx)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
		got := promSamples(text)
		for _, s := range series {
			out[s] += got[s]
		}
	}
	return out, nil
}

// Series the benchmark reads from /metrics.
const (
	seriesShed         = "lemonaded_shed_total"
	seriesBreakerOpens = "lemonaded_breaker_opens_total"
	seriesCacheHits    = "lemonaded_dse_cache_hits_total"
	seriesCacheMisses  = "lemonaded_dse_cache_misses_total"
)
