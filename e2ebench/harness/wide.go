package harness

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"

	"lemonade/api"
	"lemonade/internal/dse"
	"lemonade/internal/registry"
)

// wide is the wide-memory pass: one in-memory node on a loopback
// listener, driven by a closed loop of nproc callers over at most nproc
// keep-alive connections, each caller taking its lane of wide
// architectures through lockout.
func (w *workload) wide(ctx context.Context, p *pass) error {
	sched := WideSchedule(w.opt.Seed, w.env.Procs)
	p.sched = sched
	w.logf("wide-memory: %d callers over %d connections, %d architectures in lanes of %d; schedule digest %s",
		len(sched.Lanes), w.env.Procs, len(sched.Fleet), wideLaneArchs, sched.Digest())
	design, err := dse.Explore(specOf(wideSpec))
	if err != nil {
		return fmt.Errorf("solving the wide design: %w", err)
	}
	tr := p.cfg.tracer

	var (
		n         *node
		client    *api.Client
		transport *http.Transport
		ids       []string
	)
	for i := 0; i < p.cfg.setups; i++ {
		start := w.now()
		nn, c, tp, err := w.loopbackNode(tr)
		if err != nil {
			return err
		}
		got, err := w.provisionNode(ctx, p, c, sched.Fleet, wideSpec, design)
		if err != nil {
			return err
		}
		p.setupNs = append(p.setupNs, float64(w.now()-start))
		if i < p.cfg.setups-1 {
			tp.CloseIdleConnections()
			if err := nn.stop(ctx); err != nil {
				return err
			}
			continue
		}
		n, client, transport, ids = nn, c, tp, got
	}
	defer transport.CloseIdleConnections()
	secrets := make([]string, len(sched.Fleet))
	for i, a := range sched.Fleet {
		secrets[i] = hex.EncodeToString(a.Secret)
	}

	if p.metBefore, err = scrape(ctx, []*api.Client{client}, seriesShed, seriesBreakerOpens); err != nil {
		return err
	}
	var wrong atomic.Int64
	win := w.openWindow(p)
	p.samples = closedLoop(ctx, w.env.NowNanos, sched.Lanes, p.cfg.seconds,
		func(ctx context.Context, seq int64, arch int) (outcome, bool) {
			id := ids[arch]
			if tr != nil {
				ctx = withRequest(ctx, seq, id)
			}
			start := w.now()
			resp, err := client.Access(ctx, id, api.AccessRequest{})
			if tr != nil {
				tr.add(Span{Layer: spanClient, Seq: seq, Arch: id, Node: "node", Start: start, End: w.now(), Err: err != nil})
			}
			if err == nil && resp.SecretHex != secrets[arch] {
				wrong.Add(1)
				return outFailed, false
			}
			out := classify(err)
			return out, out == outExhausted
		})
	win.close()
	p.heapBytes = liveHeap()
	if p.metAfter, err = scrape(ctx, []*api.Client{client}, seriesShed, seriesBreakerOpens); err != nil {
		return err
	}
	if k := wrong.Load(); k > 0 {
		p.gatef("%d accesses answered 200 with the wrong secret", k)
	}
	if err := w.restart(p, n.srv.Registry()); err != nil {
		return err
	}
	if err := n.stop(ctx); err != nil {
		return err
	}

	t := tallies(p.samples, len(sched.Fleet))
	var jobs []replayJob
	for i, a := range sched.Fleet {
		if t[i].attempts() > 0 {
			jobs = append(jobs, replayJob{name: ids[i], design: design, secret: a.Secret, seed: a.Seed, want: t[i]})
		}
	}
	replayGate(ctx, p, jobs, w.env.Procs)
	return nil
}

// loopbackNode starts an in-memory node on a loopback listener and a
// client capped at nproc keep-alive connections to it.
func (w *workload) loopbackNode(tr *Tracer) (*node, *api.Client, *http.Transport, error) {
	nn, err := startNode(nodeConfig{name: "node", now: w.env.NowNanos, tracer: tr})
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := listen()
	if err != nil {
		return nil, nil, nil, err
	}
	nn.serve(ln)
	tp := loopbackTransport(w.env.Procs)
	c, err := api.NewClient(nn.base,
		api.WithHTTPClient(&http.Client{Transport: tracedRoundTripper(tp, tr, func(string) string { return "node" })}),
		api.WithTimeout(clientTimeout))
	if err != nil {
		return nil, nil, nil, err
	}
	return nn, c, tp, nil
}

// restart times the in-memory workloads' restart: with no log to replay,
// a restarted node rebuilds every architecture from its provisioning
// triple and overlays its wear state, as a snapshot restore does. The
// rebuilt fleet must carry the live counts.
func (w *workload) restart(p *pass, regs ...*registry.Registry) error {
	for i := 0; i < p.cfg.recoveries; i++ {
		runtime.GC() // start each timed restart from the same clean heap
		start := w.now()
		rebuilt := make([]*registry.Registry, len(regs))
		for j, reg := range regs {
			r, err := rebuildRegistry(reg)
			if err != nil {
				return err
			}
			rebuilt[j] = r
		}
		p.recoverNs = append(p.recoverNs, float64(w.now()-start))
		if i > 0 {
			continue
		}
		for j, reg := range regs {
			if err := sameCounts(reg, rebuilt[j]); err != nil {
				p.gatef("restart: %v", err)
			}
		}
	}
	return nil
}
