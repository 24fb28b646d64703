// Package harness is the end-to-end access benchmark of the lemonade
// daemon. It composes the daemon stack from its public packages the way
// `lemonaded serve` does, drives it through the api clients with a
// schedule derived from a seed, checks every output, and reports
// end-to-end metrics (untraced) or per-layer metrics (traced). See
// ../README.md for the workloads and the layer → end-to-end map.
//
// The package never reads the wall clock, the CPU clock or OS entropy:
// the composition root in cmd/e2ebench injects them through Env.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"

	"lemonade/api"
	"lemonade/internal/core"
)

// Workload names, as BENCHMARK.json lists them.
const (
	WorkloadDurable = "durable-fleet"
	WorkloadWide    = "wide-memory"
	WorkloadCluster = "cluster-paper"
)

// Workloads lists every workload the benchmark runs.
var Workloads = []string{WorkloadDurable, WorkloadWide, WorkloadCluster}

// Env is what the composition root injects.
type Env struct {
	// NowNanos is a monotonic wall clock in nanoseconds.
	NowNanos func() int64
	// CPUNanos is the process's user+sys CPU time in nanoseconds.
	CPUNanos func() int64
	// SleepNanos blocks the calling OS thread for about ns nanoseconds.
	// The open-loop generator paces with it because time.Sleep rounds
	// sub-millisecond waits up to the runtime's timer granularity, which
	// would show up as lateness in every open-loop latency.
	SleepNanos func(ns int64)
	// DataDir is a temporary directory for WAL data directories.
	DataDir string
	// Procs is nproc: the closed-loop caller count and connection cap.
	Procs int
	// Log receives progress and provenance lines.
	Log io.Writer
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	// Trace selects the per-layer run: an untraced pass then a traced pass,
	// each Seconds/2 long, reporting the per-layer metrics.
	Trace bool
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is one run's report.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	// GateErrors lists every correctness check that failed.
	GateErrors []string
}

// Run executes one workload run.
func Run(ctx context.Context, env Env, opt Options) (*Result, error) {
	if env.Procs < 1 {
		env.Procs = 1
	}
	w := &workload{env: env, opt: opt}
	switch opt.Workload {
	case WorkloadDurable:
		w.run = w.durable
	case WorkloadWide:
		w.run = w.wide
	case WorkloadCluster:
		w.run = w.cluster
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.Workload, strings.Join(Workloads, ", "))
	}
	if !opt.Trace {
		p, err := w.pass(ctx, passConfig{seconds: opt.Seconds, setups: e2eSetups, recoveries: e2eRecoveries})
		if err != nil {
			return nil, err
		}
		return w.endToEnd(p)
	}
	plain, err := w.pass(ctx, passConfig{seconds: opt.Seconds / 2, setups: 1, recoveries: 1})
	if err != nil {
		return nil, err
	}
	traced, err := w.pass(ctx, passConfig{seconds: opt.Seconds / 2, setups: 1, recoveries: 1,
		tracer: NewTracer(env.NowNanos)})
	if err != nil {
		return nil, err
	}
	return w.perLayer(ctx, plain, traced)
}

// Set-up and recovery repeat within an end-to-end run; the report gives
// their medians.
const (
	e2eSetups     = 5
	e2eRecoveries = 11
)

// outcome classifies one completed request.
type outcome uint8

const (
	outSuccess   outcome = iota // 200
	outTransient                // 503 from a copy switch: expected, no failure
	outExhausted                // 410 lockout: expected
	outFailed                   // shed, 5xx, timeout, transport error, wrong answer
)

// classify maps an api error onto an outcome. A 503 is a copy-switch
// transient only when the server says so; shedding, the breaker and
// timeouts are failures.
func classify(err error) outcome {
	var ae *api.Error
	switch {
	case err == nil:
		return outSuccess
	case api.IsExhausted(err):
		return outExhausted
	case errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable && onlyTransient(ae.Message):
		return outTransient
	default:
		return outFailed
	}
}

// onlyTransient reports whether every line of an error message is a core
// copy-switch transient: a single node's 503 has one line, a cluster's
// quorum failure one line per share that failed.
func onlyTransient(msg string) bool {
	for _, line := range strings.Split(msg, "\n") {
		if !strings.Contains(line, core.ErrTransient.Error()) {
			return false
		}
	}
	return true
}

// sample is one measured request.
type sample struct {
	seq        int64
	arch       int // fleet index
	kind       OpKind
	due, start int64 // due == start in closed loops
	end        int64
	out        outcome
	late       int64 // open loop: dispatch time minus due time
}

// latency is the request's latency: from its due time, so an open loop
// charges a stall to every request it delays.
func (s sample) latency() int64 { return s.end - s.due }

// passConfig is one measured pass.
type passConfig struct {
	seconds    float64
	setups     int
	recoveries int
	tracer     *Tracer
}

// pass is what one measured pass observed.
type pass struct {
	cfg       passConfig
	sched     *Schedule
	samples   []sample
	elapsedNs int64
	cpuNs     int64
	mallocs   uint64
	gcs       uint64
	heapBytes uint64

	setupNs   []float64
	recoverNs []float64
	replayed  int // WAL records the (last) recovery replayed

	metBefore, metAfter map[string]float64 // /metrics, summed over nodes
	cacheHits           float64            // design-cache hits during provisioning
	cacheLookups        float64

	windowStart, windowEnd int64
	walBytes               int64 // traced: WAL segment bytes in the window
	snapBytes              int64 // traced: other bytes in the window
	gateErrors             []string
	k                      int // cluster threshold; 1 on a single node
}

// workload binds one run's environment to its workload's pass function.
type workload struct {
	env Env
	opt Options
	run func(ctx context.Context, p *pass) error
}

func (w *workload) now() int64 { return w.env.NowNanos() }

func (w *workload) logf(format string, args ...any) {
	if w.env.Log != nil {
		fmt.Fprintf(w.env.Log, format, args...)
		fmt.Fprintln(w.env.Log)
	}
}

// pass runs one measured pass and samples the runtime around its window.
func (w *workload) pass(ctx context.Context, cfg passConfig) (*pass, error) {
	p := &pass{cfg: cfg, k: 1}
	if err := w.run(ctx, p); err != nil {
		return nil, err
	}
	if len(p.samples) == 0 {
		return nil, errors.New("the measured phase completed no request")
	}
	return p, nil
}

// window brackets a measured phase: CPU, allocations and GC cycles are
// read at both ends.
type window struct {
	w              *workload
	p              *pass
	cpu0           int64
	mallocs0, gcs0 uint64
	walB0, snapB0  int64
}

func (w *workload) openWindow(p *pass) *window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	win := &window{w: w, p: p, cpu0: w.env.CPUNanos(), mallocs0: ms.Mallocs, gcs0: uint64(ms.NumGC)}
	if tr := p.cfg.tracer; tr != nil {
		win.walB0, win.snapB0 = tr.walBytes.Load(), tr.snapBytes.Load()
	}
	p.windowStart = w.now()
	return win
}

// close ends the window once every request has completed.
func (win *window) close() {
	p := win.p
	p.windowEnd = win.w.now()
	p.elapsedNs = p.windowEnd - p.windowStart
	p.cpuNs = win.w.env.CPUNanos() - win.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.gcs = ms.Mallocs-win.mallocs0, uint64(ms.NumGC)-win.gcs0
	if tr := p.cfg.tracer; tr != nil {
		p.walBytes, p.snapBytes = tr.walBytes.Load()-win.walB0, tr.snapBytes.Load()-win.snapB0
	}
}

// liveHeap is the heap still reachable after a forced GC. The workloads
// read it once the load has drained and any snapshot has finished, while
// the fleet is still live.
func liveHeap() uint64 {
	// Twice: the first collection only moves sync.Pool contents (such as
	// encoding/json's buffers from the last snapshot) to the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// accessSamples returns the samples of access operations (reveals on the
// cluster), leaving out stress bursts.
func (p *pass) accessSamples() []sample {
	out := make([]sample, 0, len(p.samples))
	for _, s := range p.samples {
		if s.kind == OpAccess {
			out = append(out, s)
		}
	}
	return out
}

// completedAccesses counts access operations that reached an expected
// outcome.
func (p *pass) completedAccesses() int {
	n := 0
	for _, s := range p.samples {
		if s.kind == OpAccess && s.out != outFailed {
			n++
		}
	}
	return n
}

func (p *pass) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.out == outFailed {
			n++
		}
	}
	return n
}

// latenciesMs returns the sorted latencies of the completed accesses.
func (p *pass) latenciesMs() []float64 {
	var xs []float64
	for _, s := range p.accessSamples() {
		if s.out != outFailed {
			xs = append(xs, float64(s.latency())/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

func (p *pass) gatef(format string, args ...any) {
	p.gateErrors = append(p.gateErrors, fmt.Sprintf(format, args...))
}
