package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// Blocking-path components of one access. For every traced access they
// partition its latency exactly: the harness's own share (the open loop's
// dispatch delay, mostly), the client and
// transport around the serving node, the handler's self time, and the
// registry stages below it; on the cluster, the launch of the blocking
// (k-th) owner ask and the fan-out's remainder after it.
var pathComponents = []string{
	"gen.dispatch", "api.launch", "api.transport", "server.self",
	"registry.append", "registry.commit", "registry.apply", "api.fanout_overhead",
}

// seqNode keys spans of one request on one node.
type seqNode struct {
	seq  int64
	node string
}

// spanIndex groups a traced pass's spans for per-request lookups.
type spanIndex struct {
	client  map[int64]Span
	owners  map[int64][]Span // transport spans of access asks, per request
	handler map[seqNode]Span
	store   map[seqNode][]Span
	byLayer map[string][]Span // spans inside the measured window
}

func indexSpans(spans []Span, from, to int64) *spanIndex {
	ix := &spanIndex{
		client:  make(map[int64]Span),
		owners:  make(map[int64][]Span),
		handler: make(map[seqNode]Span),
		store:   make(map[seqNode][]Span),
		byLayer: make(map[string][]Span),
	}
	for _, s := range spans {
		if s.Start >= from && s.End <= to {
			ix.byLayer[s.Layer] = append(ix.byLayer[s.Layer], s)
		}
		if s.Seq < 0 {
			continue
		}
		switch s.Layer {
		case spanClient:
			ix.client[s.Seq] = s
		case spanTransport:
			if s.Route == "access" {
				ix.owners[s.Seq] = append(ix.owners[s.Seq], s)
			}
		case spanHandler:
			ix.handler[seqNode{s.Seq, s.Node}] = s
		case spanAppend, spanCommitWait, spanApply:
			k := seqNode{s.Seq, s.Node}
			ix.store[k] = append(ix.store[k], s)
		}
	}
	return ix
}

func dur(s Span) int64 { return s.End - s.Start }

// decompose splits one access's latency along its blocking path; ok is
// false when a span the path needs is missing (a failed request).
func (ix *spanIndex) decompose(s sample, k int) (map[string]int64, bool) {
	c, ok := ix.client[s.seq]
	if !ok {
		return nil, false
	}
	comp := map[string]int64{"gen.dispatch": s.latency() - dur(c)}
	// outer is the call whose node-side handler blocks the access: the
	// client call itself on a single node, the k-th successful owner ask
	// on the cluster.
	outer, node := c, c.Node
	if k > 1 {
		var won []Span
		for _, o := range ix.owners[s.seq] {
			if !o.Err {
				won = append(won, o)
			}
		}
		if len(won) < k {
			return nil, false
		}
		sort.Slice(won, func(i, j int) bool { return won[i].End < won[j].End })
		b := won[k-1]
		comp["api.launch"] = b.Start - c.Start
		comp["api.fanout_overhead"] = c.End - b.End
		outer, node = b, b.Node
	}
	h, ok := ix.handler[seqNode{s.seq, node}]
	if !ok {
		return nil, false
	}
	comp["api.transport"] = dur(outer) - dur(h)
	children := ix.store[seqNode{s.seq, node}]
	ivs := make([]Interval, len(children))
	for i, ch := range children {
		ivs[i] = Interval{ch.Start, ch.End}
		comp[ch.Layer] += dur(ch)
	}
	comp["server.self"] = SelfTime(Interval{h.Start, h.End}, ivs)
	return comp, true
}

// metricSet accumulates named metrics in report order.
type metricSet struct{ ms []Metric }

func (m *metricSet) add(name, unit string, v float64) { m.ms = append(m.ms, Metric{name, v, unit}) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsUs(spans []Span) []float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(dur(s)) / 1e3
	}
	sort.Float64s(xs)
	return xs
}

// perLayer turns an untraced and a traced pass into the per-layer report.
func (w *workload) perLayer(ctx context.Context, plain, traced *pass) (*Result, error) {
	ix := indexSpans(traced.cfg.tracer.Spans(), traced.windowStart, traced.windowEnd)
	completed := float64(traced.completedAccesses())
	m := &metricSet{}

	// Blocking path, per access: each component's own distribution, and
	// the components of the median accesses.
	comps := make(map[string][]float64)
	var paths []decomposed
	for _, s := range traced.accessSamples() {
		if s.out == outFailed {
			continue
		}
		if c, ok := ix.decompose(s, traced.k); ok {
			paths = append(paths, decomposed{latency: s.latency(), comp: c})
			for _, name := range pathComponents {
				comps[name] = append(comps[name], float64(c[name])/1e3)
			}
		}
	}
	p50 := func(name string) float64 { return median(comps[name]) }
	p99 := func(name string) float64 { return Quantile(sortedCopy(comps[name]), 0.99) }
	band := medianBand(paths)

	plainLat, tracedLat := plain.latenciesMs(), traced.latenciesMs()
	pathSum := 0.0
	for _, name := range pathComponents {
		pathSum += band[name] / 1e3
	}
	m.add("trace.untraced_access_p50_ms", "ms", Quantile(plainLat, 0.5))
	m.add("trace.untraced_access_p99_ms", "ms", Quantile(plainLat, 0.99))
	m.add("trace.access_p50_ms", "ms", Quantile(tracedLat, 0.5))
	m.add("trace.overhead_ms", "ms", Quantile(tracedLat, 0.5)-Quantile(plainLat, 0.5))
	m.add("trace.path_sum_p50_ms", "ms", pathSum)
	m.add("trace.decomposed_accesses", "count", float64(len(paths)))
	m.add("failed_ratio", "1", ratio(float64(plain.failed()), float64(len(plain.samples))))

	late := 0.0
	if w.opt.Workload == WorkloadDurable {
		late = genLateMs(plain)
	}
	m.add("gen.late_p99_ms", "ms", late)
	m.add("gen.dispatch_p50_us", "us", p50("gen.dispatch"))

	// api and cluster.
	m.add("api.transport_p50_us", "us", p50("api.transport"))
	m.add("api.launch_p50_us", "us", p50("api.launch"))
	m.add("api.fanout_overhead_p50_us", "us", p50("api.fanout_overhead"))
	w.apiMetrics(m, ix, traced)

	// server.
	handlers := filterRoute(ix.byLayer[spanHandler], "access")
	hd := durationsUs(handlers)
	m.add("server.handler_p50_us", "us", Quantile(hd, 0.5))
	m.add("server.handler_p99_us", "us", Quantile(hd, 0.99))
	m.add("server.self_p50_us", "us", p50("server.self"))

	// runtime and resilience, from the untraced pass.
	pc := float64(plain.completedAccesses())
	m.add("runtime.allocs_per_access", "count", ratio(float64(plain.mallocs), pc))
	m.add("runtime.gc_cycles_per_kaccess", "count", ratio(1000*float64(plain.gcs), pc))
	m.add("resilience.shed_ratio", "1",
		ratio(plain.metAfter[seriesShed]-plain.metBefore[seriesShed], float64(len(plain.samples))))
	m.add("resilience.breaker_opens", "count", plain.metAfter[seriesBreakerOpens]-plain.metBefore[seriesBreakerOpens])

	// registry.
	m.add("registry.append_p50_us", "us", p50("registry.append"))
	m.add("registry.commit_wait_p50_us", "us", p50("registry.commit"))
	m.add("registry.commit_wait_p99_us", "us", p99("registry.commit"))
	m.add("registry.apply_p50_us", "us", p50("registry.apply"))
	maint := 0
	records := int64(0)
	for _, s := range ix.byLayer[spanAppend] {
		if s.Maint {
			maint++
		}
		if !s.Err {
			records += s.N
		}
	}
	m.add("registry.maintenance_appends_per_kaccess", "count", ratio(1000*float64(maint), completed))

	// wal.
	fsyncs := ix.byLayer[spanFsync]
	fd := durationsUs(fsyncs)
	m.add("wal.fsyncs_per_access", "count", ratio(float64(len(fsyncs)), completed))
	m.add("wal.records_per_fsync", "count", ratio(float64(records), float64(len(fsyncs))))
	m.add("wal.fsync_p50_us", "us", Quantile(fd, 0.5))
	m.add("wal.fsync_p99_us", "us", Quantile(fd, 0.99))
	m.add("wal.bytes_per_access", "B", ratio(float64(traced.walBytes), completed))
	snaps := ix.byLayer[spanSnapshot]
	m.add("wal.snapshots", "count", float64(len(snaps)))
	m.add("wal.snapshot_p50_ms", "ms", Quantile(durationsUs(snaps), 0.5)/1e3)
	m.add("wal.snapshot_bytes", "B", ratio(float64(traced.snapBytes), float64(len(snaps))))
	m.add("wal.snapshot_overlap_p99_ms", "ms", overlapP99(traced, snaps))
	replayRate := 0.0
	if w.opt.Workload == WorkloadDurable {
		replayRate = ratio(float64(traced.replayed), median(traced.recoverNs)/1e9)
	}
	m.add("wal.replay_records_per_s", "1/s", replayRate)

	// core, dse and the design cache, timed directly outside the window.
	if err := w.coreMetrics(ctx, m, traced.sched.Fleet); err != nil {
		return nil, err
	}
	m.add("cache.hit_ratio", "1", ratio(plain.cacheHits, plain.cacheLookups))

	w.logf("blocking path of the median accesses (p45–p55 of %d, mean µs; component medians beside):", len(paths))
	for _, name := range pathComponents {
		w.logf("  %-22s %10.1f %10.1f", name, band[name], p50(name))
	}
	w.logf("  %-22s %10.1f  (traced access p50 %.1f µs over %d decomposed accesses)",
		"sum", pathSum*1e3, Quantile(tracedLat, 0.5)*1e3, len(paths))
	w.logf("tracing overhead: untraced p50 %.4f ms, traced p50 %.4f ms", Quantile(plainLat, 0.5), Quantile(tracedLat, 0.5))

	r := &Result{
		Attempted:  len(plain.samples) + len(traced.samples),
		Failed:     plain.failed() + traced.failed(),
		GateErrors: append(append([]string(nil), plain.gateErrors...), traced.gateErrors...),
		Metrics:    m.ms,
	}
	r.Correct = len(r.GateErrors) == 0
	return r, nil
}

// decomposed is one traced access split along its blocking path.
type decomposed struct {
	latency int64
	comp    map[string]int64
}

// medianBand averages each path component, in µs, over the accesses
// whose latency lies between the 45th and 55th percentiles. The
// components of one access add up to its latency, so the averages add up
// to about the median latency: where the time of a typical access goes.
func medianBand(paths []decomposed) map[string]float64 {
	out := make(map[string]float64, len(pathComponents))
	if len(paths) == 0 {
		return out
	}
	sorted := append([]decomposed(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].latency < sorted[j].latency })
	lo, hi := rankIndex(len(sorted), 0.45), rankIndex(len(sorted), 0.55)
	for _, d := range sorted[lo : hi+1] {
		for _, name := range pathComponents {
			out[name] += float64(d.comp[name]) / 1e3
		}
	}
	for name := range out {
		out[name] /= float64(hi - lo + 1)
	}
	return out
}

func filterRoute(spans []Span, route string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Route == route {
			out = append(out, s)
		}
	}
	return out
}

// apiMetrics reports the client-side fan-out: per-owner ask latency, how
// many asks each access took, why the extra ones were sent, and how the
// asks spread over the nodes.
func (w *workload) apiMetrics(m *metricSet, ix *spanIndex, p *pass) {
	asks := filterRoute(ix.byLayer[spanTransport], "access")
	if p.k == 1 {
		m.add("api.owner_p50_us", "us", 0)
		m.add("api.owner_p99_us", "us", 0)
		m.add("api.asks_per_access", "1", ratio(float64(p.completedAccesses()), float64(len(asks))))
		m.add("api.hedges_per_kaccess", "count", 0)
		m.add("api.failovers_per_kaccess", "count", 0)
		m.add("cluster.node_share_skew", "1", 1)
		return
	}
	od := durationsUs(asks)
	m.add("api.owner_p50_us", "us", Quantile(od, 0.5))
	m.add("api.owner_p99_us", "us", Quantile(od, 0.99))
	hedges, failovers, reveals := 0, 0, 0
	perNode := make(map[string]int)
	for _, s := range p.accessSamples() {
		owners := append([]Span(nil), ix.owners[s.seq]...)
		if len(owners) == 0 {
			continue
		}
		if s.out == outSuccess {
			reveals++
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i].Start < owners[j].Start })
		for i, o := range owners {
			perNode[o.Node]++
			if i < p.k {
				continue
			}
			failover := false
			for _, e := range owners[:i] {
				if e.Err && e.End <= o.Start {
					failover = true
				}
			}
			if failover {
				failovers++
			} else {
				hedges++
			}
		}
	}
	m.add("api.asks_per_access", "1", ratio(float64(p.k*reveals), float64(len(asks))))
	m.add("api.hedges_per_kaccess", "count", ratio(1000*float64(hedges), float64(reveals)))
	m.add("api.failovers_per_kaccess", "count", ratio(1000*float64(failovers), float64(reveals)))
	lo, hi := -1, 0
	for _, n := range perNode {
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if len(perNode) < clusterNodes {
		lo = 0
	}
	m.add("cluster.node_share_skew", "1", ratio(float64(hi), float64(lo)))
}

// overlapP99 is the p99 latency of the accesses whose lifetime overlaps
// a snapshot, or 0 when none does.
func overlapP99(p *pass, snaps []Span) float64 {
	var xs []float64
	for _, s := range p.accessSamples() {
		for _, sn := range snaps {
			if s.due < sn.End && s.end > sn.Start {
				xs = append(xs, float64(s.latency())/1e6)
				break
			}
		}
	}
	return Quantile(sortedCopy(xs), 0.99)
}

// coreReplicas is how many replicas per device point the core timings
// fabricate, and coreAccesses how many accesses each serves.
const (
	coreReplicas = 3
	coreAccesses = 200
)

// coreMetrics times core.Build and Arch.Access directly at both device
// points on replicas fabricated from the run's fleet seeds, and a cold
// dse.Explore of the workload's device point.
func (w *workload) coreMetrics(ctx context.Context, m *metricSet, fleet []FleetArch) error {
	type point struct {
		name string
		spec api.SpecRequest
	}
	for _, pt := range []point{{"paper", paperSpec}, {"wide", wideSpec}} {
		design, err := dse.Explore(specOf(pt.spec))
		if err != nil {
			return err
		}
		var builds, accesses []float64
		for i := 0; i < coreReplicas && i < len(fleet); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			start := w.now()
			arch, err := core.Build(design, fleet[i].Secret, rng.New(fleet[i].Seed))
			if err != nil {
				return fmt.Errorf("core replica: %w", err)
			}
			builds = append(builds, float64(w.now()-start)/1e6)
			start = w.now()
			for j := 0; j < coreAccesses; j++ {
				if _, err := arch.Access(nems.RoomTemp); err != nil && !isWearout(err) {
					return fmt.Errorf("core replica access: %w", err)
				}
			}
			accesses = append(accesses, float64(w.now()-start)/1e3/coreAccesses)
		}
		m.add("core.access_us."+pt.name, "us", median(accesses))
		m.add("core.build_ms."+pt.name, "ms", median(builds))
	}
	spec := paperSpec
	if w.opt.Workload == WorkloadWide {
		spec = wideSpec
	}
	var explores []float64
	for i := 0; i < 3; i++ {
		start := w.now()
		if _, err := dse.Explore(specOf(spec)); err != nil {
			return err
		}
		explores = append(explores, float64(w.now()-start)/1e6)
	}
	m.add("dse.explore_ms", "ms", median(explores))
	return nil
}

// isWearout reports an expected wearout refusal of core.
func isWearout(err error) bool {
	return errors.Is(err, core.ErrTransient) || errors.Is(err, core.ErrExhausted)
}
