package harness

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"

	"lemonade/api"
	"lemonade/internal/dse"
	"lemonade/internal/metrics"
)

// durable is the durable-fleet pass: one node with a WAL on disk, driven
// in process by an open loop of Poisson arrivals, crashed after the load
// drains, then recovered.
func (w *workload) durable(ctx context.Context, p *pass) error {
	sched := DurableSchedule(w.opt.Seed, durableRate, p.cfg.seconds)
	p.sched = sched
	w.logf("durable-fleet: %d ops offered at %d/s over %gs to %d architectures (p99 limit %d ms); schedule digest %s",
		len(sched.Ops), durableRate, p.cfg.seconds, len(sched.Fleet), durableP99LimitMs, sched.Digest())
	design, err := dse.Explore(specOf(paperSpec))
	if err != nil {
		return fmt.Errorf("solving the paper design: %w", err)
	}
	tr := p.cfg.tracer
	base, err := os.MkdirTemp(w.env.DataDir, "pass-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	var (
		n      *node
		client *api.Client
		check  *stressCheck
		ids    []string
		dir    string
	)
	for i := 0; i < p.cfg.setups; i++ {
		dir = filepath.Join(base, fmt.Sprintf("setup-%d", i))
		start := w.now()
		nn, err := startNode(nodeConfig{name: "node", dataDir: dir, now: w.env.NowNanos, tracer: tr})
		if err != nil {
			return err
		}
		chk := &stressCheck{next: handlerTransport{h: nn.handler}}
		c, err := api.NewClient("http://node",
			api.WithHTTPClient(&http.Client{Transport: tracedRoundTripper(chk, tr, func(string) string { return "node" })}),
			api.WithTimeout(clientTimeout))
		if err != nil {
			return err
		}
		got, err := w.provisionNode(ctx, p, c, sched.Fleet, paperSpec, design)
		if err != nil {
			return err
		}
		p.setupNs = append(p.setupNs, float64(w.now()-start))
		if i < p.cfg.setups-1 {
			if err := nn.stop(ctx); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		n, client, check, ids = nn, c, chk, got
	}
	secrets := make([]string, len(sched.Fleet))
	check.secrets = make(map[string]string, len(ids))
	for i, a := range sched.Fleet {
		secrets[i] = hex.EncodeToString(a.Secret)
		check.secrets[ids[i]] = secrets[i]
	}

	if p.metBefore, err = scrape(ctx, []*api.Client{client}, seriesShed, seriesBreakerOpens); err != nil {
		return err
	}
	var wrong atomic.Int64
	win := w.openWindow(p)
	p.samples, err = openLoop(ctx, realLoopClock(w.env.NowNanos, w.env.SleepNanos), sched.Ops, func(ctx context.Context, op Op) outcome {
		id := ids[op.Arch]
		if tr != nil {
			ctx = withRequest(ctx, int64(op.Seq), id)
		}
		start := w.now()
		var err error
		if op.Kind == OpStress {
			_, err = client.Stress(ctx, id, api.StressRequest{TempCelsius: stressTempC, Indices: op.Indices, Pulses: stressPulses})
		} else {
			var resp *api.AccessResponse
			resp, err = client.Access(ctx, id, api.AccessRequest{})
			if err == nil && resp.SecretHex != secrets[op.Arch] {
				wrong.Add(1)
				return outFailed
			}
		}
		if tr != nil {
			tr.add(Span{Layer: spanClient, Seq: int64(op.Seq), Arch: id, Node: "node", Start: start, End: w.now(), Err: err != nil})
		}
		return classify(err)
	})
	win.close()
	if err != nil {
		return err
	}
	if p.metAfter, err = scrape(ctx, []*api.Client{client}, seriesShed, seriesBreakerOpens); err != nil {
		return err
	}
	if k := wrong.Load(); k > 0 {
		p.gatef("%d accesses answered 200 with the wrong secret", k)
	}
	if v := check.violations.Load(); v > 0 {
		p.gatef("%d stress responses carried fields or bytes beyond the stress report", v)
	}

	// Crash: close the store with no parting snapshot, then recover the
	// directory the run left, as a restarted daemon would.
	live := n.srv.Registry()
	if err := n.stop(ctx); err != nil {
		return err
	}
	p.heapBytes = liveHeap()
	if k := n.snapErrors.Load(); k > 0 {
		p.gatef("%d snapshots failed", k)
	}
	t := tallies(p.samples, len(sched.Fleet))
	for i := 0; i < p.cfg.recoveries; i++ {
		runtime.GC() // start each timed recovery from the same clean heap
		start := w.now()
		d, err := openDurable(dir, w.env.NowNanos, metrics.NewRegistry(), nil, "node")
		if err != nil {
			return err
		}
		p.recoverNs = append(p.recoverNs, float64(w.now()-start))
		p.replayed = d.stats.ReplayedRecords()
		if i == 0 {
			if err := sameCounts(live, d.reg); err != nil {
				p.gatef("recovery: %v", err)
			}
			w.checkAcknowledged(p, d, ids, t)
		}
		if err := d.store.Close(); err != nil {
			return err
		}
	}

	var jobs []replayJob
	for i, a := range sched.Fleet {
		if !a.Leveled {
			jobs = append(jobs, replayJob{name: ids[i], design: design, secret: a.Secret, seed: a.Seed, want: t[i]})
		}
	}
	replayGate(ctx, p, jobs, w.env.Procs)
	return nil
}

// checkAcknowledged compares the recovered wear state with what the
// stack acknowledged: attempts and successes per architecture, and the
// stress pulses of every acknowledged burst.
func (w *workload) checkAcknowledged(p *pass, d *durableStore, ids []string, t []tally) {
	for i, id := range ids {
		e, ok := d.reg.Get(id)
		if !ok {
			p.gatef("recovery lost %s", id)
			continue
		}
		total, okCount := e.Arch.Accesses()
		if int(total) != t[i].attempts() || int(okCount) != t[i].success {
			p.gatef("%s: acknowledged %d attempts / %d successes, recovered %d / %d",
				id, t[i].attempts(), t[i].success, total, okCount)
		}
		if want := uint64(t[i].stressAcks * stressPulses); e.Arch.Stressed() != want {
			p.gatef("%s: acknowledged %d stress pulses, recovered %d", id, want, e.Arch.Stressed())
		}
	}
}

// provisionNode provisions the fleet through c, one request at a time so
// IDs follow fleet order, and reads the design cache's hits and misses
// around it. Every answer must carry the design the harness solved.
func (w *workload) provisionNode(ctx context.Context, p *pass, c *api.Client, fleet []FleetArch,
	spec api.SpecRequest, design dse.Design) ([]string, error) {
	before, err := scrape(ctx, []*api.Client{c}, seriesCacheHits, seriesCacheMisses)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(fleet))
	for i, a := range fleet {
		req := api.ProvisionRequest{Spec: spec, SecretHex: hex.EncodeToString(a.Secret), Seed: a.Seed}
		if a.Leveled {
			req.Spares = leveledSpares
		}
		resp, err := c.Provision(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("provisioning fleet[%d]: %w", i, err)
		}
		if resp.Design.N != design.N || resp.Design.K != design.K || resp.Design.Copies != design.Copies {
			p.gatef("%s: provisioned design n=%d k=%d copies=%d, expected %d/%d/%d",
				resp.ID, resp.Design.N, resp.Design.K, resp.Design.Copies, design.N, design.K, design.Copies)
		}
		ids[i] = resp.ID
	}
	after, err := scrape(ctx, []*api.Client{c}, seriesCacheHits, seriesCacheMisses)
	if err != nil {
		return nil, err
	}
	p.cacheHits = after[seriesCacheHits] - before[seriesCacheHits]
	p.cacheLookups = p.cacheHits + after[seriesCacheMisses] - before[seriesCacheMisses]
	return ids, nil
}

// stressCheck is the attacker-side correctness gate on the wire: a stress
// response may carry only the stress report's fields (or an error body),
// and never the target's secret.
type stressCheck struct {
	next       http.RoundTripper
	secrets    map[string]string // architecture ID → secret hex; written before the load starts
	violations atomic.Int64
}

// stressFields are the only keys a stress response may carry.
var stressFields = map[string]bool{
	"conducted": true, "pulses": true, "stressed": true, "remaps": true, // 200
	"error": true, "field": true, "retry": true, // error body
}

func (sc *stressCheck) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := sc.next.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/stress") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	id := strings.TrimSuffix(strings.TrimPrefix(req.URL.Path, "/v1/architectures/"), "/stress")
	var fields map[string]json.RawMessage
	bad := json.Unmarshal(body, &fields) != nil
	for k := range fields {
		bad = bad || !stressFields[k]
	}
	if secret := sc.secrets[id]; secret != "" && bytes.Contains(bytes.ToLower(body), []byte(secret)) {
		bad = true
	}
	if bad {
		sc.violations.Add(1)
	}
	return resp, nil
}
