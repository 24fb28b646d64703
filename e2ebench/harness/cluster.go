package harness

import (
	"context"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/dse"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
)

// cluster is the cluster-paper pass: clusterNodes in-memory nodes, each on
// its own loopback listener, and one closed-loop api.ClusterClient caller
// revealing paper-point k-of-n architectures inside their budgets.
func (w *workload) cluster(ctx context.Context, p *pass) error {
	sched := ClusterSchedule(w.opt.Seed)
	p.sched, p.k = sched, clusterShareK
	w.logf("cluster-paper: %d nodes, %d-of-%d shares, hedge %d ms, %d architectures × %d reveals; schedule digest %s",
		clusterNodes, clusterShareK, clusterNodes, clusterHedgeMs, len(sched.Fleet), sched.Reveals, sched.Digest())
	design, err := dse.Explore(specOf(paperSpec))
	if err != nil {
		return fmt.Errorf("solving the paper design: %w", err)
	}
	tr := p.cfg.tracer

	var (
		cs   *clusterStack
		cids []string
	)
	for i := 0; i < p.cfg.setups; i++ {
		start := w.now()
		s, err := w.startCluster(tr)
		if err != nil {
			return err
		}
		got, err := w.provisionCluster(ctx, p, s, sched.Fleet)
		if err != nil {
			return err
		}
		p.setupNs = append(p.setupNs, float64(w.now()-start))
		if i < p.cfg.setups-1 {
			if err := s.stop(ctx); err != nil {
				return err
			}
			continue
		}
		cs, cids = s, got
	}
	secrets := make([]string, len(sched.Fleet))
	for i, a := range sched.Fleet {
		secrets[i] = hex.EncodeToString(a.Secret)
	}

	if p.metBefore, err = scrape(ctx, cs.clients, seriesShed, seriesBreakerOpens); err != nil {
		return err
	}
	var wrong atomic.Int64
	reveals := make([]int, len(sched.Fleet)) // one caller: no sharing
	win := w.openWindow(p)
	p.samples = closedLoop(ctx, w.env.NowNanos, sched.Lanes, p.cfg.seconds,
		func(ctx context.Context, seq int64, arch int) (outcome, bool) {
			cid := cids[arch]
			if tr != nil {
				ctx = withRequest(ctx, seq, cid)
			}
			start := w.now()
			res, err := cs.cc.Access(ctx, cid, api.AccessRequest{})
			if tr != nil {
				tr.add(Span{Layer: spanClient, Seq: seq, Arch: cid, Start: start, End: w.now(), Err: err != nil})
			}
			reveals[arch]++
			out := classify(err)
			if err == nil && (res.SecretHex != secrets[arch] || len(res.Served) != clusterShareK) {
				wrong.Add(1)
				out = outFailed
			}
			return out, reveals[arch] >= sched.Reveals
		})
	win.close()
	p.heapBytes = liveHeap()
	if p.metAfter, err = scrape(ctx, cs.clients, seriesShed, seriesBreakerOpens); err != nil {
		return err
	}
	if k := wrong.Load(); k > 0 {
		p.gatef("%d reveals returned a wrong secret or the wrong number of shares", k)
	}

	t := tallies(p.samples, len(sched.Fleet))
	var jobs []replayJob
	for i, a := range sched.Fleet {
		if t[i].exhausted > 0 {
			p.gatef("%s: %d reveals refused as exhausted inside the budget", cids[i], t[i].exhausted)
		}
		if t[i].attempts() == 0 {
			continue
		}
		js, err := w.shareJobs(ctx, p, cs, cids[i], a, design, t[i].success)
		if err != nil {
			return err
		}
		jobs = append(jobs, js...)
	}
	regs := make([]*registry.Registry, len(cs.nodes))
	for i, n := range cs.nodes {
		regs[i] = n.srv.Registry()
	}
	if err := w.restart(p, regs...); err != nil {
		return err
	}
	if err := cs.stop(ctx); err != nil {
		return err
	}
	replayGate(ctx, p, jobs, w.env.Procs)
	return nil
}

// shareJobs reads every share's wearout state and turns it into a serial
// replay job. A share architecture guards the encoded Shamir share the
// client derived from the cluster seed; it is rebuilt from the same
// derivation. Every successful reveal consumed k share successes.
func (w *workload) shareJobs(ctx context.Context, p *pass, cs *clusterStack, cid string, a FleetArch,
	design dse.Design, okReveals int) ([]replayJob, error) {
	sts, err := cs.cc.ShareStatuses(ctx, cid)
	if err != nil {
		return nil, err
	}
	shares, err := shamir.Split(a.Secret, clusterShareK, clusterNodes, rng.New(a.Seed).Derive("cluster/split"))
	if err != nil {
		return nil, err
	}
	var jobs []replayJob
	successes := 0
	for i, st := range sts {
		if st == nil {
			p.gatef("%s: share %d unreachable for status", cid, i)
			continue
		}
		successes += int(st.Successful)
		jobs = append(jobs, replayJob{
			name:   st.ID,
			design: design,
			secret: cluster.EncodeShare(shares[i].X, shares[i].Data),
			seed:   rng.New(a.Seed).DeriveIndex("cluster/arch", i).Uint64(),
			want:   tally{success: int(st.Successful), transient: int(st.Attempts - st.Successful)},
		})
	}
	if successes < clusterShareK*okReveals {
		p.gatef("%s: %d share successes cannot serve %d reveals of %d shares", cid, successes, okReveals, clusterShareK)
	}
	return jobs, nil
}

// provisionCluster provisions the fleet through the cluster client and
// reads the nodes' design caches around it.
func (w *workload) provisionCluster(ctx context.Context, p *pass, cs *clusterStack, fleet []FleetArch) ([]string, error) {
	before, err := scrape(ctx, cs.clients, seriesCacheHits, seriesCacheMisses)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(fleet))
	for i, a := range fleet {
		res, err := cs.cc.Provision(ctx, api.ClusterProvision{
			Spec: paperSpec, SecretHex: hex.EncodeToString(a.Secret), Seed: a.Seed,
			ShareK: clusterShareK, ShareN: clusterNodes,
		})
		if err != nil {
			return nil, fmt.Errorf("provisioning cluster fleet[%d]: %w", i, err)
		}
		ids[i] = res.ClusterID
	}
	after, err := scrape(ctx, cs.clients, seriesCacheHits, seriesCacheMisses)
	if err != nil {
		return nil, err
	}
	p.cacheHits = after[seriesCacheHits] - before[seriesCacheHits]
	p.cacheLookups = p.cacheHits + after[seriesCacheMisses] - before[seriesCacheMisses]
	return ids, nil
}

// clusterStack is the in-process cluster: nodes on their own loopback
// listeners and one cluster client.
type clusterStack struct {
	nodes     []*node
	byHost    map[string]string // listener host:port → node name
	clients   []*api.Client     // one plain client per node, for /metrics
	cc        *api.ClusterClient
	transport *http.Transport
}

func (cs *clusterStack) nodeOf(host string) string { return cs.byHost[host] }

func (cs *clusterStack) stop(ctx context.Context) error {
	cs.transport.CloseIdleConnections()
	for _, n := range cs.nodes {
		if err := n.stop(ctx); err != nil {
			return err
		}
	}
	return nil
}

// startCluster composes clusterNodes in-memory cluster nodes
// (server.Config.Cluster) on loopback listeners, and a cluster client
// that opens at most one connection per node and hedges after
// clusterHedgeMs.
func (w *workload) startCluster(tr *Tracer) (*clusterStack, error) {
	cs := &clusterStack{byHost: make(map[string]string), transport: loopbackTransport(1)}
	members := make(map[string]string, clusterNodes)
	names := make([]string, clusterNodes)
	lns := make([]net.Listener, clusterNodes)
	for i := range names {
		ln, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		names[i] = fmt.Sprintf("n%d", i+1)
		members[names[i]] = "http://" + ln.Addr().String()
		cs.byHost[ln.Addr().String()] = names[i]
	}
	for i, name := range names {
		cn, err := cluster.NewNode(cluster.Config{Self: name, Nodes: members, Seed: clusterRingSeed})
		if err != nil {
			return nil, err
		}
		n, err := startNode(nodeConfig{name: name, now: w.env.NowNanos, tracer: tr, cluster: cn})
		if err != nil {
			return nil, err
		}
		n.serve(lns[i])
		cs.nodes = append(cs.nodes, n)
		c, err := api.NewClient(n.base, api.WithTimeout(clientTimeout))
		if err != nil {
			return nil, err
		}
		cs.clients = append(cs.clients, c)
	}
	rt := tracedRoundTripper(cs.transport, tr, cs.nodeOf)
	cc, err := api.NewClusterClient(members, clusterRingSeed,
		api.WithClusterNodeOptions(api.WithHTTPClient(&http.Client{Transport: rt}), api.WithTimeout(clientTimeout)),
		api.WithHedgeDelay(clusterHedgeMs*time.Millisecond))
	if err != nil {
		return nil, err
	}
	cs.cc = cc
	return cs, nil
}
