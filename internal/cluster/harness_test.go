// The in-process cluster harness: N WAL-backed lemonaded nodes behind
// httptest listeners, one ring, one cluster-aware client — everything
// seeded, nothing reading the wall clock, so every run of a given
// schedule is bit-identical. This file is what makes the multi-node
// architecture safe to grow: the tests here pin the global-budget
// invariant (reveals ≤ B under any interleaving, 503s — never minted
// budget — when nodes die) and bit-identical double recovery of every
// node's WAL, with and without injected disk faults.
package cluster_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/fault"
	"lemonade/internal/registry"
	"lemonade/internal/server"
	"lemonade/internal/wal"
)

var clusterSpec = api.SpecRequest{Alpha: 6, Beta: 8, LAB: 30, KFrac: 0.1, ContinuousT: true}

const clusterSecretHex = "00112233445566778899aabbccddeeff"

// shareBudget solves the per-share design and returns its hardware
// budget ceiling M: no share architecture can serve more successful
// accesses than that, whatever the interleaving. The ceiling follows
// the repo-wide convention (cf. internal/fault/chaos_test.go):
// MaxAllowedAccesses plus a 2·Copies slack, because each serial copy's
// death past UpperT is a ≤ MaxOverrun-probability event, not an exact
// cliff — the hard guarantee is the sum, not the per-copy bound.
func shareBudget(t *testing.T) int {
	t.Helper()
	d, err := dse.Explore(shareSpec())
	if err != nil {
		t.Fatal(err)
	}
	return d.MaxAllowedAccesses() + 2*d.Copies
}

// shareSpec is the dse.Spec the wire-level clusterSpec implies — the
// same solve every node performs for a share provision.
func shareSpec() dse.Spec {
	spec := dse.Spec{LAB: clusterSpec.LAB, KFrac: clusterSpec.KFrac, ContinuousT: true}
	spec.Dist.Alpha = clusterSpec.Alpha
	spec.Dist.Beta = clusterSpec.Beta
	spec.Criteria.MinWork = 0.99
	spec.Criteria.MaxOverrun = 0.01
	return spec
}

// harnessNode is one in-process lemonaded: a WAL-backed registry behind
// an httptest listener, carrying its cluster identity.
type harnessNode struct {
	name string
	dir  string
	st   *wal.DiskStore
	reg  *registry.Registry
	ts   *httptest.Server

	killed bool
}

// kill takes the node off the air mid-run: the listener closes (clients
// see connection errors, as with a crashed process) and the WAL store
// is abandoned un-Closed, exactly like a SIGKILL.
func (n *harnessNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// harness is an N-node in-process cluster plus the client facing it.
type harness struct {
	nodes map[string]*harnessNode
	urls  map[string]string
	seed  uint64
}

// startCluster boots nodes named n0..n{count-1}, each with its own WAL
// under dir and an optional per-node faulty filesystem. The listener
// addresses are allocated before any server starts, so every node's
// ring (and the client's) is built over the same URL table.
func startCluster(t *testing.T, dir string, count int, seed uint64, fs map[string]fault.FS) *harness {
	t.Helper()
	h := &harness{nodes: make(map[string]*harnessNode), urls: make(map[string]string), seed: seed}
	// Phase 1: listeners only, so the full URL table exists before any
	// node's ring is constructed.
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("n%d", i)
		ts := httptest.NewUnstartedServer(nil)
		h.nodes[name] = &harnessNode{name: name, ts: ts, dir: filepath.Join(dir, name)}
		h.urls[name] = "http://" + ts.Listener.Addr().String()
	}
	// Phase 2: WAL, registry, server, start.
	for _, n := range h.nodes {
		st, err := wal.Open(wal.Config{Dir: n.dir, FS: fs[n.name]})
		if err != nil {
			t.Fatalf("%s: open: %v", n.name, err)
		}
		n.st = st
		n.reg = registry.NewWithStore(4, st)
		if _, err := st.Recover(n.reg); err != nil {
			t.Fatalf("%s: recover: %v", n.name, err)
		}
		node, err := cluster.NewNode(cluster.Config{Self: n.name, Nodes: h.urls, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Registry: n.reg, Cluster: node})
		n.ts.Config.Handler = srv.Handler()
		n.ts.Start()
	}
	t.Cleanup(func() {
		for _, n := range h.nodes {
			n.kill()
		}
	})
	return h
}

// client builds a cluster-aware client over the harness ring.
func (h *harness) client(t *testing.T, opts ...api.ClusterOption) *api.ClusterClient {
	t.Helper()
	cc, err := api.NewClusterClient(h.urls, h.seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// shareStates recovers one node's WAL from disk into a fresh registry
// (the node's server keeps running; recovery opens the directory
// read-only through a second store) and returns the canonical JSON of
// every entry's full architecture state, keyed by entry ID.
func shareStates(t *testing.T, dir string) map[string]string {
	t.Helper()
	st, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open %s: %v", dir, err)
	}
	reg := registry.NewWithStore(4, st)
	if _, err := st.Recover(reg); err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	reg.Range(func(e *registry.Entry) bool {
		blob, err := json.Marshal(e.Arch.State())
		if err != nil {
			t.Fatal(err)
		}
		out[e.ID] = string(blob)
		return true
	})
	return out
}

// TestClusterGlobalBudgetConcurrent is the acceptance test's first
// half: a 3-node k=n=3 cluster hammered by concurrent clients must
// reveal the secret at most B times (B = the per-share hardware budget;
// with k=n every reveal consumes one success on every node) and then
// lock out permanently — under ANY goroutine interleaving, with no
// coordinator anywhere.
func TestClusterGlobalBudgetConcurrent(t *testing.T) {
	budget := shareBudget(t)
	h := startCluster(t, t.TempDir(), 3, 42, nil)
	cc := h.client(t)

	prov, err := cc.Provision(context.Background(), api.ClusterProvision{
		Spec: clusterSpec, SecretHex: clusterSecretHex, Seed: 7, ShareK: 3, ShareN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var reveals atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < budget*4; i++ {
				res, err := cc.Access(context.Background(), prov.ClusterID, api.AccessRequest{})
				switch {
				case err == nil:
					if res.SecretHex != clusterSecretHex {
						t.Errorf("revealed wrong secret %q", res.SecretHex)
						return
					}
					reveals.Add(1)
				case api.IsExhausted(err):
					return // global lockout reached; this worker is done
				case api.IsTransient(err):
					// A copy died mid-access on some node, or fewer than k
					// shares answered this round — no reveal, retry.
				default:
					var ae *api.Error
					if errors.As(err, &ae) && ae.StatusCode == 422 {
						continue // decode-failed share round; wear consumed, no reveal
					}
					t.Errorf("unexpected access error: %v", err)
					return
				}
			}
			t.Error("worker never reached lockout")
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got := int(reveals.Load())
	if got > budget {
		t.Fatalf("BUDGET OVERRUN: %d reveals from a global budget of %d", got, budget)
	}
	if got == 0 {
		t.Fatal("no reveals at all — harness not exercising the budget")
	}
	// The lockout must be permanent: one more access is 410, and every
	// node's own ledger agrees no share over-served.
	if _, err := cc.Access(context.Background(), prov.ClusterID, api.AccessRequest{}); !api.IsExhausted(err) {
		t.Fatalf("post-lockout access = %v, want exhausted", err)
	}
	sts, err := cc.ShareStatuses(context.Background(), prov.ClusterID)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st == nil {
			t.Fatalf("share %d status unreachable", i)
		}
		if int(st.Successful) > budget {
			t.Fatalf("share %d over-served: %d successes > budget %d", i, st.Successful, budget)
		}
	}
}

// transcript is the deterministic record of one sequential cluster
// schedule: per access the outcome class and secret, then every node's
// recovered share states. Two runs of the same seed must produce equal
// transcripts, byte for byte.
type transcriptEntry struct {
	Outcome string `json:"outcome"`
	Secret  string `json:"secret,omitempty"`
}

// runSeededSchedule plays one fixed sequential schedule against a fresh
// 3-node cluster rooted at dir and returns (transcript, states after a
// first recovery, states after a second recovery of the same WALs).
func runSeededSchedule(t *testing.T, dir string, seed uint64) ([]transcriptEntry, []map[string]string, []map[string]string) {
	t.Helper()
	budget := shareBudget(t)
	h := startCluster(t, dir, 3, seed, nil)
	cc := h.client(t)
	prov, err := cc.Provision(context.Background(), api.ClusterProvision{
		Spec: clusterSpec, SecretHex: clusterSecretHex, Seed: 7, ShareK: 3, ShareN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace []transcriptEntry
	for i := 0; i < budget*3; i++ {
		// The seeded environment schedule: every 7th access runs hot, so
		// accelerated wear is part of the replayed trajectory.
		req := api.AccessRequest{}
		if i%7 == 6 {
			req.TempCelsius = 200
		}
		res, err := cc.Access(context.Background(), prov.ClusterID, req)
		e := transcriptEntry{}
		switch {
		case err == nil:
			e.Outcome, e.Secret = "reveal", res.SecretHex
		case api.IsExhausted(err):
			e.Outcome = "exhausted"
		case api.IsTransient(err):
			e.Outcome = "transient"
		default:
			var ae *api.Error
			if errors.As(err, &ae) && ae.StatusCode == 422 {
				e.Outcome = "decode_failed"
			} else {
				t.Fatalf("access %d: %v", i, err)
			}
		}
		trace = append(trace, e)
		if e.Outcome == "exhausted" {
			break
		}
	}
	// Tear the cluster down un-Closed (crash), then recover every WAL
	// twice from disk.
	for _, n := range h.nodes {
		n.kill()
	}
	var first, second []map[string]string
	for i := 0; i < 3; i++ {
		first = append(first, shareStates(t, h.nodes[fmt.Sprintf("n%d", i)].dir))
	}
	for i := 0; i < 3; i++ {
		second = append(second, shareStates(t, h.nodes[fmt.Sprintf("n%d", i)].dir))
	}
	return trace, first, second
}

// TestClusterSeededScheduleBitIdentical is the acceptance test's
// determinism half: the same seeded sequential schedule, run twice
// against two fresh clusters, must produce byte-identical transcripts
// (same reveals, same lockout point) AND byte-identical recovered
// states — and recovering any node's WAL twice must agree with itself.
func TestClusterSeededScheduleBitIdentical(t *testing.T) {
	dirA := t.TempDir()
	traceA, firstA, secondA := runSeededSchedule(t, dirA, 42)
	traceB, firstB, _ := runSeededSchedule(t, t.TempDir(), 42)

	ja, _ := json.Marshal(traceA)
	jb, _ := json.Marshal(traceB)
	if string(ja) != string(jb) {
		t.Fatalf("transcripts differ across same-seed runs:\nA: %s\nB: %s", ja, jb)
	}
	if traceA[len(traceA)-1].Outcome != "exhausted" {
		t.Fatalf("schedule never reached lockout: last outcome %q", traceA[len(traceA)-1].Outcome)
	}
	reveals := 0
	for _, e := range traceA {
		if e.Outcome == "reveal" {
			reveals++
		}
	}
	if budget := shareBudget(t); reveals > budget {
		t.Fatalf("BUDGET OVERRUN: %d reveals > budget %d", reveals, budget)
	} else if reveals == 0 {
		t.Fatal("schedule revealed nothing")
	}
	for i := 0; i < 3; i++ {
		a, _ := json.Marshal(firstA[i])
		a2, _ := json.Marshal(secondA[i])
		if string(a) != string(a2) {
			t.Fatalf("node n%d: double recovery of the same WAL disagrees with itself", i)
		}
		b, _ := json.Marshal(firstB[i])
		if string(a) != string(b) {
			t.Fatalf("node n%d: recovered state differs across same-seed runs", i)
		}
	}
	checkScheduleGolden(t, ja, firstA, dirA)
}

// checkScheduleGolden compares run A of the seeded schedule with
// testdata/seeded-schedule-seed42.golden: one "name sha256" line for
// the transcript JSON, for each node's recovered-state JSON and for
// each node's first WAL segment. Two same-seed runs agreeing with each
// other says nothing about a change that moves both the same way (other
// share payloads, build seeds or record bytes); the golden does.
// Regenerate with -update (and justify the diff in review).
func checkScheduleGolden(t *testing.T, transcript []byte, states []map[string]string, dir string) {
	t.Helper()
	var got strings.Builder
	line := func(name string, b []byte) {
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s %s\n", name, hex.EncodeToString(sum[:]))
	}
	line("transcript", transcript)
	for i, st := range states {
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("n%d/state", i), blob)
	}
	for i := range states {
		seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("n%d", i), "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		line(fmt.Sprintf("n%d/wal-00000001.log", i), seg)
	}
	path := filepath.Join("testdata", "seeded-schedule-seed42.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("seeded schedule drifted from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}

// TestClusterNodeKillDegradesTo503 is the acceptance test's failure
// half, k=n case: with 3-of-3 shares required, killing any one node
// (n−k+1 = 1) must turn every subsequent access into a retryable 503 —
// owner down — and can never mint budget: reveals before + after stay
// within B, and the secret is never reconstructed from k−1 shares.
func TestClusterNodeKillDegradesTo503(t *testing.T) {
	budget := shareBudget(t)
	h := startCluster(t, t.TempDir(), 3, 42, nil)
	cc := h.client(t)
	prov, err := cc.Provision(context.Background(), api.ClusterProvision{
		Spec: clusterSpec, SecretHex: clusterSecretHex, Seed: 7, ShareK: 3, ShareN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	reveals := 0
	for i := 0; i < 3; i++ {
		res, err := cc.Access(context.Background(), prov.ClusterID, api.AccessRequest{})
		if err == nil {
			if res.SecretHex != clusterSecretHex {
				t.Fatalf("wrong secret")
			}
			reveals++
		} else if !api.IsTransient(err) {
			t.Fatalf("pre-kill access %d: %v", i, err)
		}
	}
	h.nodes[prov.Owners[0]].kill()
	// Only a few rounds: with k=n every failed round still wears the two
	// live shares (physical wearout has no rollback — see DESIGN §14), so
	// hammering to the budget would legitimately exhaust them and turn
	// the answer into a true 410. The degradation contract under test is
	// the early behavior: 503 owner-down, never a reveal.
	for i := 0; i < 5; i++ {
		res, err := cc.Access(context.Background(), prov.ClusterID, api.AccessRequest{})
		if err == nil {
			t.Fatalf("access %d succeeded with a dead owner holding share 0 of a 3-of-3 split: %v", i, res.Served)
		}
		if api.IsExhausted(err) {
			t.Fatalf("access %d: dead node misreported as exhausted — that would be a permanent lockout from a transient outage: %v", i, err)
		}
		if !api.IsTransient(err) {
			t.Fatalf("access %d: want 503, got %v", i, err)
		}
		var ae *api.Error
		if errors.As(err, &ae) && !strings.Contains(ae.Message, "owner down") {
			t.Fatalf("access %d: want owner-down classification, got %q", i, ae.Message)
		}
	}
	if reveals > budget {
		t.Fatalf("BUDGET OVERRUN: %d reveals > %d", reveals, budget)
	}
}

// TestClusterNodeKillToleratedAtKOfN is the same crash with slack in
// the split: k=2 of n=3 means one dead node is survivable — accesses
// keep succeeding off the two spare owners, and total reveals stay
// within the global ceiling n·M/k (every reveal consumes at least k
// share successes from a pool of n·M).
func TestClusterNodeKillToleratedAtKOfN(t *testing.T) {
	budget := shareBudget(t)
	h := startCluster(t, t.TempDir(), 3, 42, nil)
	cc := h.client(t)
	prov, err := cc.Provision(context.Background(), api.ClusterProvision{
		Spec: clusterSpec, SecretHex: clusterSecretHex, Seed: 7, ShareK: 2, ShareN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the primary owner immediately: every access must fail over to
	// the spare share without a single reveal lost to the outage.
	h.nodes[prov.Owners[0]].kill()
	reveals, ceiling := 0, 3*budget/2
	for i := 0; i < ceiling*3; i++ {
		res, err := cc.Access(context.Background(), prov.ClusterID, api.AccessRequest{})
		switch {
		case err == nil:
			if res.SecretHex != clusterSecretHex {
				t.Fatal("wrong secret after failover")
			}
			for _, n := range res.Served {
				if n == prov.Owners[0] {
					t.Fatalf("dead node %q reported as serving", n)
				}
			}
			reveals++
		case api.IsExhausted(err):
			if reveals == 0 {
				t.Fatal("exhausted before any reveal")
			}
			if reveals > ceiling {
				t.Fatalf("BUDGET OVERRUN: %d reveals > global ceiling %d", reveals, ceiling)
			}
			return
		case api.IsTransient(err):
			// wear noise; retry
		default:
			var ae *api.Error
			if errors.As(err, &ae) && ae.StatusCode == 422 {
				continue
			}
			t.Fatalf("access %d: %v", i, err)
		}
	}
	t.Fatalf("never reached lockout (reveals %d, ceiling %d)", reveals, ceiling)
}

// TestClusterFaultedRecoveryBitIdentical turns seeded disk faults on
// under live cluster traffic, crashes every node, and then requires
// what the paper requires of the hardware: whatever the weather did,
// the durable record is the truth — reveals stay within budget and two
// recoveries of each node's WAL agree bit for bit.
func TestClusterFaultedRecoveryBitIdentical(t *testing.T) {
	budget := shareBudget(t)
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fs := map[string]fault.FS{}
			for i := 0; i < 3; i++ {
				// Leave the first ops fault-free so every node boots and takes
				// its share: the chaos under test is live-traffic weather, not
				// a node that never came up.
				plan := fault.FromSeed(seed*100+uint64(i), 600, 0.03)
				live := plan.Rules[:0]
				for _, r := range plan.Rules {
					if r.Op > 40 {
						live = append(live, r)
					}
				}
				plan.Rules = live
				fs[fmt.Sprintf("n%d", i)] = fault.NewInjector(fault.OS{}, plan)
			}
			h := startCluster(t, t.TempDir(), 3, 42, fs)
			cc := h.client(t)
			prov, err := cc.Provision(context.Background(), api.ClusterProvision{
				Spec: clusterSpec, SecretHex: clusterSecretHex, Seed: seed, ShareK: 3, ShareN: 3,
			})
			if err != nil {
				// A fault during provisioning fails closed; nothing to assert
				// beyond recovery consistency below — but without shares the
				// run is vacuous, so skip loudly.
				t.Skipf("provision hit injected fault (fails closed): %v", err)
			}
			reveals := 0
			for i := 0; i < budget*3; i++ {
				res, err := cc.Access(context.Background(), prov.ClusterID, api.AccessRequest{})
				switch {
				case err == nil:
					if res.SecretHex != clusterSecretHex {
						t.Fatal("revealed wrong secret through faults")
					}
					reveals++
				case api.IsExhausted(err):
					i = budget * 3 // lockout is permanent; stop the schedule
				default:
					// Injected store faults surface as 500s, shed/transient as
					// 503s, garbled shares as 422s — all fail closed, none
					// reveal.
				}
			}
			if reveals > budget {
				t.Fatalf("BUDGET OVERRUN through faults: %d > %d", reveals, budget)
			}
			for _, n := range h.nodes {
				n.kill()
			}
			for i := 0; i < 3; i++ {
				dir := h.nodes[fmt.Sprintf("n%d", i)].dir
				a, _ := json.Marshal(shareStates(t, dir))
				b, _ := json.Marshal(shareStates(t, dir))
				if string(a) != string(b) {
					t.Fatalf("node n%d: double recovery disagrees after faulted run", i)
				}
				// The recovered ledger can never show more successes than the
				// hardware budget allows.
				for id, raw := range shareStates(t, dir) {
					var st core.State
					if err := json.Unmarshal([]byte(raw), &st); err != nil {
						t.Fatal(err)
					}
					if int(st.Successful) > budget {
						t.Fatalf("node n%d share %s over-served after recovery: %d > %d", i, id, st.Successful, budget)
					}
				}
			}
		})
	}
}
