package api

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lemonade/internal/cluster"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
)

// ClusterClient is the cluster-aware client: it splits each secret into
// n Shamir shares, routes every share to its ring-placed owner node, and
// reconstructs secrets locally from any k fetched shares. No node ever
// sees the whole secret, and no coordinator sits on the read path — the
// client IS the combiner, and the only global state is the placement
// function every party computes independently.
//
// Create with NewClusterClient. Methods are safe for concurrent use.
type ClusterClient struct {
	node     *cluster.Node
	clients  map[string]*Client
	nodeOpts []Option
	// hedge, when > 0, is how long Access waits on an outstanding share
	// fetch before speculatively launching the next spare owner.
	hedge time.Duration
	// sleep is the hedge pump's ctx-capped wait, so a hedge delay can
	// never outlive the caller's deadline. Injectable for tests.
	sleep func(ctx context.Context, d time.Duration) error

	mu   sync.Mutex
	seq  uint64                 // guarded by mu; cluster ID mint counter
	arcs map[string]clusterArch // guarded by mu; cluster ID -> (k, n)
}

// clusterArch is the client-side record of a cluster architecture's
// share geometry; Access needs it to know how many owners to consult.
type clusterArch struct{ K, N int }

// ClusterOption customizes a ClusterClient.
type ClusterOption func(*ClusterClient)

// WithClusterNodeOptions forwards opts to every per-node Client (e.g.
// WithHTTPClient to share one transport across the nodes).
func WithClusterNodeOptions(opts ...Option) ClusterOption {
	return func(cc *ClusterClient) { cc.nodeOpts = append(cc.nodeOpts, opts...) }
}

// WithHedgeDelay enables hedged share fetches: when an owner has not
// answered within d, Access speculatively asks the next spare owner for
// its share instead of waiting out the straggler. 0 (the default)
// disables hedging; failed fetches still fail over to spares instantly.
func WithHedgeDelay(d time.Duration) ClusterOption {
	return func(cc *ClusterClient) { cc.hedge = d }
}

// NewClusterClient returns a client for the cluster whose members are
// nodes (name -> base URL) under the given placement seed. The node set
// and seed must match every server's ring configuration, or provisions
// will be refused as misrouted.
func NewClusterClient(nodes map[string]string, seed uint64, opts ...ClusterOption) (*ClusterClient, error) {
	cc := &ClusterClient{
		sleep: sleepCtx,
		arcs:  make(map[string]clusterArch),
	}
	for _, o := range opts {
		o(cc)
	}
	node, err := cluster.NewNode(cluster.Config{Nodes: nodes, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	cc.node = node
	cc.clients = make(map[string]*Client, len(nodes))
	for name, base := range nodes {
		c, err := NewClient(base, cc.nodeOpts...)
		if err != nil {
			return nil, fmt.Errorf("api: cluster node %q: %w", name, err)
		}
		cc.clients[name] = c
	}
	return cc, nil
}

// sleepCtx is the production sleep: a timer race against the context, so
// a hedge delay can never outlive the caller's deadline.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ring exposes the client's placement ring, mainly for tests and
// tooling that want to predict share ownership.
func (cc *ClusterClient) Ring() *cluster.Ring { return cc.node.Ring() }

// ClusterProvision parameterizes one cluster-wide provision: the share
// geometry (any ShareK of ShareN nodes can answer an access), the
// per-share architecture spec, and the master seed every derived
// randomness stems from.
type ClusterProvision struct {
	Spec      SpecRequest
	SecretHex string
	Seed      uint64
	ShareK    int
	ShareN    int
}

// ClusterProvisionResult identifies one provisioned cluster
// architecture: its minted ID and the owner of each share.
type ClusterProvisionResult struct {
	ClusterID string
	ShareK    int
	ShareN    int
	// Owners[i] is the node holding share i.
	Owners []string
}

// Provision splits the secret into ShareN shares (threshold ShareK) and
// provisions each onto its ring-placed owner, one limited-use
// architecture per share. The split and every per-share build seed are
// derived from Seed, so a fixed provisioning sequence is bit-identical
// across runs.
//
// Provisioning is sequential and fails fast: an error part-way leaves
// the earlier shares registered under a cluster ID this client has
// burned. Those orphans are inert — fewer than ShareK shares
// reconstruct nothing — and consume no wear unless accessed.
func (cc *ClusterClient) Provision(ctx context.Context, req ClusterProvision) (*ClusterProvisionResult, error) {
	if req.ShareK < 1 || req.ShareN < req.ShareK {
		return nil, fmt.Errorf("api: cluster: need 1 <= k <= n, got k=%d n=%d", req.ShareK, req.ShareN)
	}
	secret, err := hex.DecodeString(req.SecretHex)
	if err != nil {
		return nil, fmt.Errorf("api: cluster: secret_hex: %w", err)
	}
	if len(secret) == 0 {
		return nil, errors.New("api: cluster: empty secret")
	}
	cc.mu.Lock()
	cc.seq++
	id := fmt.Sprintf("arch-%06d", cc.seq)
	cc.mu.Unlock()
	owners, err := cc.node.Ring().Owners(id, req.ShareN)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	shares, err := shamir.Narrow.Split(secret, req.ShareK, req.ShareN, rng.New(req.Seed).Derive("cluster/split"))
	if err != nil {
		return nil, fmt.Errorf("api: cluster: %w", err)
	}
	for i, owner := range owners {
		payload := cluster.EncodeShare(shares[i].X, shares[i].Data)
		_, err := cc.clients[owner].Provision(ctx, ProvisionRequest{
			Spec:      req.Spec,
			SecretHex: hex.EncodeToString(payload),
			Seed:      rng.New(req.Seed).DeriveIndex("cluster/arch", i).Uint64(),
			Share:     &SharePlacement{ClusterID: id, ShareIndex: i, ShareTotal: req.ShareN},
		})
		if err != nil {
			return nil, fmt.Errorf("api: cluster: provisioning share %d on %q: %w", i, owner, err)
		}
	}
	cc.mu.Lock()
	cc.arcs[id] = clusterArch{K: req.ShareK, N: req.ShareN}
	cc.mu.Unlock()
	return &ClusterProvisionResult{ClusterID: id, ShareK: req.ShareK, ShareN: req.ShareN, Owners: owners}, nil
}

// RegisterCluster teaches the client the share geometry of a cluster
// architecture provisioned elsewhere (another client process), so
// Access can route to it. Placement needs no registration — it is
// re-derived from the ring.
func (cc *ClusterClient) RegisterCluster(id string, shareK, shareN int) error {
	if id == "" {
		return errors.New("api: cluster: empty cluster id")
	}
	if shareK < 1 || shareN < shareK {
		return fmt.Errorf("api: cluster: need 1 <= k <= n, got k=%d n=%d", shareK, shareN)
	}
	if shareN > cc.node.Ring().Size() {
		return fmt.Errorf("api: cluster: n=%d exceeds ring size %d", shareN, cc.node.Ring().Size())
	}
	cc.mu.Lock()
	cc.arcs[id] = clusterArch{K: shareK, N: shareN}
	cc.mu.Unlock()
	return nil
}

// geometry looks up a registered cluster architecture.
func (cc *ClusterClient) geometry(id string) (clusterArch, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	a, ok := cc.arcs[id]
	return a, ok
}

// ClusterAccessResult reports one reconstructed cluster access.
type ClusterAccessResult struct {
	SecretHex string
	// Served names the nodes whose shares won the race, in completion
	// order. len(Served) == the cluster's k.
	Served []string
}

// shareResult is one owner's answer to a share fetch.
type shareResult struct {
	idx   int
	node  string
	share shamir.Share
	err   error
}

// Access reconstructs the secret by fetching any k of the n shares.
//
// The fan-out is eager for the first k owners and lazy for the spares:
// spare owner k+j is consulted only when a fetch fails (instant
// failover) or when the hedge delay elapses j times with the access
// still unresolved (straggler hedging, WithHedgeDelay). Each owner is
// asked at most once per call — a hedged loser's wear is bounded by the
// one fetch already in flight, never duplicated — and the first k
// successes cancel every straggler via the shared request context.
//
// Failures map onto the cluster error taxonomy, all as *Error:
//
//	410 — exhausted: so many owners report spent budgets that k shares
//	      can never again be assembled. The cluster-level lockout.
//	422 — decode failed: k shares were unreachable and at least one
//	      owner conducted but could not reconstruct its share (or
//	      returned a malformed payload).
//	503 — owner down: a node could not be reached at all (transport
//	      error). Retryable; spares may cover it on the next call.
//	503 — quorum unreachable: owners answered but fewer than k could
//	      serve (degraded stores, shedding, replays, a share the node
//	      does not hold). Retryable.
func (cc *ClusterClient) Access(ctx context.Context, id string, req AccessRequest) (*ClusterAccessResult, error) {
	geo, ok := cc.geometry(id)
	if !ok {
		return nil, fmt.Errorf("api: cluster: unknown cluster id %q (RegisterCluster first)", id)
	}
	owners, err := cc.node.Ring().Owners(id, geo.N)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan shareResult, geo.N)
	launch := func(i int) {
		go func() {
			r := shareResult{idx: i, node: owners[i]}
			out, err := cc.clients[owners[i]].Access(rctx, cluster.ShareID(id, i), req)
			if err != nil {
				r.err = err
			} else if sh, derr := decodeShareHex(out.SecretHex); derr != nil {
				// A malformed payload is a decode failure, not an owner
				// outage — classify it as the node's 422 would be.
				r.err = &Error{StatusCode: http.StatusUnprocessableEntity, Message: "malformed share payload: " + derr.Error()}
			} else {
				r.share = sh
			}
			results <- r
		}()
	}
	for i := 0; i < geo.K; i++ {
		launch(i)
	}
	// The hedge pump: one tick per spare, spaced hedge apart, through the
	// ctx-capped sleep. Ticks only grant permission — the collector
	// below is the sole launcher, so a spare is never raced onto the wire
	// twice (once for a failure, once for a hedge).
	hedgeTick := make(chan struct{}, geo.N-geo.K)
	if cc.hedge > 0 && geo.K < geo.N {
		go func() {
			for j := geo.K; j < geo.N; j++ {
				if cc.sleep(rctx, cc.hedge) != nil {
					return
				}
				hedgeTick <- struct{}{}
			}
		}()
	}

	spares := make([]int, 0, geo.N-geo.K)
	for i := geo.K; i < geo.N; i++ {
		spares = append(spares, i)
	}
	popSpare := func() {
		if len(spares) > 0 {
			launch(spares[0])
			spares = spares[1:]
		}
	}
	var (
		won      = make([]shamir.Share, 0, geo.K)
		served   = make([]string, 0, geo.K)
		errs     []error
		launched = geo.K
		outcomes = 0
	)
	for len(won) < geo.K {
		if outcomes == launched && len(spares) == 0 {
			// Every consulted owner has answered, no spares remain, and
			// still fewer than k shares: the access has failed.
			return nil, classifyClusterFailure(geo.K, geo.N, errs)
		}
		select {
		case r := <-results:
			outcomes++
			if r.err != nil {
				errs = append(errs, fmt.Errorf("share %d on %q: %w", r.idx, r.node, r.err))
				before := len(spares)
				popSpare()
				launched += before - len(spares)
				continue
			}
			won = append(won, r.share)
			served = append(served, r.node)
		case <-hedgeTick:
			before := len(spares)
			popSpare()
			launched += before - len(spares)
		case <-rctx.Done():
			return nil, rctx.Err()
		}
	}
	secret, err := shamir.Narrow.Combine(won, geo.K)
	if err != nil {
		return nil, &Error{StatusCode: http.StatusUnprocessableEntity, Message: "cluster: decode failed: " + err.Error()}
	}
	return &ClusterAccessResult{SecretHex: hex.EncodeToString(secret), Served: served}, nil
}

// ShareStatuses reports each share's wearout state without consuming
// any access, indexed by share number; an unreachable owner leaves a
// nil entry.
func (cc *ClusterClient) ShareStatuses(ctx context.Context, id string) ([]*StatusResponse, error) {
	geo, ok := cc.geometry(id)
	if !ok {
		return nil, fmt.Errorf("api: cluster: unknown cluster id %q (RegisterCluster first)", id)
	}
	owners, err := cc.node.Ring().Owners(id, geo.N)
	if err != nil {
		return nil, fmt.Errorf("api: %w", err)
	}
	out := make([]*StatusResponse, geo.N)
	for i, owner := range owners {
		st, err := cc.clients[owner].Status(ctx, cluster.ShareID(id, i))
		if err != nil {
			continue
		}
		out[i] = st
	}
	return out, nil
}

// decodeShareHex unpacks one wire share payload: the secret_hex a
// share architecture's access reveals.
func decodeShareHex(secretHex string) (shamir.Share, error) {
	payload, err := hex.DecodeString(secretHex)
	if err != nil {
		return shamir.Share{}, fmt.Errorf("secret_hex: %w", err)
	}
	x, data, err := cluster.DecodeShare(payload)
	if err != nil {
		return shamir.Share{}, err
	}
	return shamir.Share{X: x, Data: data}, nil
}

// classifyClusterFailure folds the per-share failures of one Access
// into the cluster error taxonomy. Precedence: a permanent global
// lockout (410) beats everything; a permanent per-share decode failure
// (422) beats the retryable refusals; transport failures classify as
// owner-down and everything else as quorum-unreachable (both 503).
func classifyClusterFailure(k, n int, errs []error) error {
	exhausted, decode, transport := 0, false, false
	for _, e := range errs {
		var ae *Error
		if !errors.As(e, &ae) {
			transport = true
			continue
		}
		switch ae.StatusCode {
		case http.StatusGone:
			exhausted++
		case http.StatusUnprocessableEntity:
			decode = true
		}
	}
	msg := errors.Join(errs...)
	switch {
	case n-exhausted < k:
		// Too few un-exhausted owners remain to ever assemble k shares:
		// the global budget is spent. This is the paper's lockout, one
		// level up — permanent by the same hardware argument.
		return &Error{StatusCode: http.StatusGone, Message: fmt.Sprintf("cluster: budget exhausted: %d of %d shares spent, need %d: %v", exhausted, n, k, msg)}
	case decode:
		return &Error{StatusCode: http.StatusUnprocessableEntity, Message: fmt.Sprintf("cluster: decode failed: %v", msg)}
	case transport:
		return &Error{StatusCode: http.StatusServiceUnavailable, Retry: true, Message: fmt.Sprintf("cluster: owner down: %v", msg)}
	default:
		return &Error{StatusCode: http.StatusServiceUnavailable, Retry: true, Message: fmt.Sprintf("cluster: quorum unreachable: %v", msg)}
	}
}
