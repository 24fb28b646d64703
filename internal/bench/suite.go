package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	"lemonade/internal/cache"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/metrics"
	"lemonade/internal/montecarlo"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/server"
	"lemonade/internal/shamir"
	"lemonade/internal/wal"
	"lemonade/internal/weibull"
)

// smallSpec is the fast design problem the WAL and HTTP cases provision:
// the same mean-6-cycle, LAB-30, 10%-encoded architecture the golden
// determinism tests pin, so its access trajectory is short and known.
func smallSpec() dse.Spec {
	return dse.Spec{
		Dist:        weibull.MustNew(6, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         30,
		KFrac:       0.10,
		ContinuousT: true,
	}
}

// paperSpec is the paper's baseline design problem (mean lifetime 14,
// LAB 91,250, 10% encoding) — the expensive search ExploreFrontier and
// the cached-explore path are measured against.
func paperSpec() dse.Spec {
	return dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         91_250,
		KFrac:       0.10,
		ContinuousT: true,
	}
}

// Suite returns the five hot paths lemonbench measures end to end.
// Order is stable; report consumers rely on metric names, not position.
func Suite() []Case {
	return []Case{
		{Name: "montecarlo/run_parallel", Setup: setupMonteCarlo},
		{Name: "dse/frontier_cold", Setup: setupFrontierCold},
		{Name: "dse/explore_cached", Setup: setupExploreCached},
		{Name: "explore/parallel", Setup: setupExploreParallel},
		{Name: "codec/shamir_split_combine", Setup: setupShamir},
		{Name: "codec/shamir_wide_combine", Setup: setupShamirWide},
		{Name: "wal/append", Setup: setupWALAppend},
		{Name: "wal/replay", Setup: setupWALReplay},
		{Name: "wal/snapshot_recovery", Setup: setupWALSnapshotRecovery},
		{Name: "http/access", Setup: setupHTTPAccess},
		{Name: "access/saturated", Setup: setupAccessSaturated},
		{Name: "access/leveled", Setup: setupAccessLeveled},
		{Name: "core/build", Setup: setupCoreBuild},
	}
}

// --- montecarlo -------------------------------------------------------------

// setupMonteCarlo measures RunParallel over 4096 Weibull-sampling trials
// — the workhorse under every figure and the /v1 simulation endpoints.
func setupMonteCarlo(env *Env) (func() ([]byte, error), func(), error) {
	d := weibull.MustNew(14, 8)
	trial := func(r *rng.RNG) float64 { return d.Sample(r) }
	ctx := env.Ctx
	seed := env.Seed
	run := func() ([]byte, error) {
		s, err := montecarlo.RunParallel(ctx, seed, 4096, trial)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		fmt.Fprintf(&out, "n=%d mean=%.17g sd=%.17g min=%.17g max=%.17g p95=%.17g",
			s.Trials, s.Mean, s.SD, s.Min, s.Max, s.Quantile(0.95))
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// --- dse --------------------------------------------------------------------

// setupFrontierCold measures the full feasible-design enumeration for
// the paper's baseline problem, uncached — the cost a cache miss pays.
func setupFrontierCold(env *Env) (func() ([]byte, error), func(), error) {
	spec := paperSpec()
	ctx := env.Ctx
	run := func() ([]byte, error) {
		designs, err := dse.ExploreFrontier(ctx, spec)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		for _, d := range designs {
			fmt.Fprintf(&out, "T=%d N=%d K=%d copies=%d total=%d\n",
				d.T, d.N, d.K, d.Copies, d.TotalDevices)
		}
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// setupExploreCached measures the cache-hit path a provisioning fleet
// takes: 1024 Explore calls against a primed LRU, per iteration.
func setupExploreCached(env *Env) (func() ([]byte, error), func(), error) {
	spec := paperSpec()
	c := cache.New[dse.Design](16)
	key := spec.CacheKey()
	compute := func() (dse.Design, error) { return dse.Explore(spec) }
	if _, _, err := c.Do(key, compute); err != nil {
		return nil, nil, err
	}
	run := func() ([]byte, error) {
		var last dse.Design
		for i := 0; i < 1024; i++ {
			d, hit, err := c.Do(key, compute)
			if err != nil {
				return nil, err
			}
			if !hit {
				return nil, fmt.Errorf("primed cache missed on iteration %d", i)
			}
			last = d
		}
		var out bytes.Buffer
		fmt.Fprintf(&out, "T=%d N=%d K=%d copies=%d total=%d",
			last.T, last.N, last.K, last.Copies, last.TotalDevices)
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// setupExploreParallel measures the parallel frontier sweep: an
// unencoded, relaxed-criteria problem whose 408 integer targets cross
// ExploreFrontier's parallel threshold, so this metric times the worker
// pool (on multi-core hosts) where dse/frontier_cold times the
// sequential paper-scale sweep. The checksum is the enumerated frontier,
// which the determinism contract requires to be identical at any
// GOMAXPROCS — bench_test pins that at 1, 2, and 8.
func setupExploreParallel(env *Env) (func() ([]byte, error), func(), error) {
	spec := dse.Spec{
		Dist:     weibull.MustNew(100, 30),
		Criteria: reliability.Criteria{MinWork: 0.90, MaxOverrun: 0.10},
		LAB:      91_250,
	}
	ctx := env.Ctx
	run := func() ([]byte, error) {
		designs, err := dse.ExploreFrontier(ctx, spec)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		for _, d := range designs {
			fmt.Fprintf(&out, "T=%d N=%d K=%d copies=%d total=%d\n",
				d.T, d.N, d.K, d.Copies, d.TotalDevices)
		}
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// --- codec ------------------------------------------------------------------

// setupShamir measures the paper-baseline sharing: split a 32-byte
// secret 15-of-141 over GF(256) and combine from the last 15 shares,
// four round trips per iteration. The share arena and the combine
// buffer are allocated once at setup and reused through the Into APIs —
// the workload bytes (and hence the checksum) are identical to the
// allocating wrappers, so this measures the codec, not the allocator.
func setupShamir(env *Env) (func() ([]byte, error), func(), error) {
	secret := make([]byte, 32)
	rng.New(env.Seed).Bytes(secret)
	seed := env.Seed
	shares := make([]shamir.Share, 141)
	combined := make([]byte, len(secret))
	run := func() ([]byte, error) {
		var out bytes.Buffer
		for rep := 0; rep < 4; rep++ {
			r := rng.New(seed).DeriveIndex("shamir-", rep)
			if err := shamir.Narrow.SplitInto(secret, shares, 15, 141, r); err != nil {
				return nil, err
			}
			n, err := shamir.Narrow.CombineInto(shares[len(shares)-15:], 15, combined)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(combined[:n], secret) {
				return nil, fmt.Errorf("rep %d: combined secret differs from input", rep)
			}
			for _, sh := range shares {
				out.WriteByte(sh.X)
				out.Write(sh.Data)
			}
		}
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// setupShamirWide measures the wide access path's combine: a 16-byte
// secret split once 114-of-1131 over GF(2^16) — the wide-memory
// structure's shape — then combined from 16 seeded k-subsets of the
// shares per iteration, so the k Lagrange weights are rebuilt for each
// subset as on every successful wide access. The checksum is the
// combined secrets.
func setupShamirWide(env *Env) (func() ([]byte, error), func(), error) {
	const k, n, subsets = 114, 1131, 16
	secret := make([]byte, 16)
	rng.New(env.Seed).Bytes(secret)
	shares, err := shamir.Wide.Split(secret, k, n, rng.New(env.Seed).Derive("shamir-wide"))
	if err != nil {
		return nil, nil, err
	}
	picks := make([][]shamir.ShareOf[uint16], subsets)
	for i := range picks {
		picks[i] = make([]shamir.ShareOf[uint16], k)
		for j, si := range rng.New(env.Seed).DeriveIndex("shamir-wide-", i).Perm(n)[:k] {
			picks[i][j] = shares[si]
		}
	}
	combined := make([]byte, len(secret))
	run := func() ([]byte, error) {
		var out bytes.Buffer
		for i, pick := range picks {
			m, err := shamir.Wide.CombineInto(pick, k, combined)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(combined[:m], secret) {
				return nil, fmt.Errorf("subset %d: combined secret differs from input", i)
			}
			out.Write(combined[:m])
		}
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// --- wal --------------------------------------------------------------------

// walAccesses is how many durable accesses the WAL cases drive per
// iteration/fixture — inside the small architecture's designed window,
// so outcomes stay on the success/transient path.
const walAccesses = 16

// buildSmallArch deterministically fabricates the small architecture.
func buildSmallArch(seed uint64) (*core.Architecture, dse.Design, error) {
	design, err := dse.Explore(smallSpec())
	if err != nil {
		return nil, dse.Design{}, err
	}
	arch, err := core.Build(design, []byte("lemonbench secret 0123456789abcd"), rng.New(seed))
	return arch, design, err
}

// openStore opens (and recovers into reg) a DiskStore on dir with a
// null clock and a private metric registry.
func openStore(dir string, reg *registry.Registry) (*wal.DiskStore, wal.RecoveryStats, error) {
	store, err := wal.Open(wal.Config{Dir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, wal.RecoveryStats{}, err
	}
	stats, err := store.Recover(reg)
	if err != nil {
		return nil, stats, err
	}
	return store, stats, nil
}

// driveAccesses performs n durable accesses through the registry entry,
// recording each outcome class into out.
func driveAccesses(ctx context.Context, out *bytes.Buffer, e *registry.Entry, n int) error {
	for i := 0; i < n; i++ {
		secret, err := e.Access(ctx, nems.RoomTemp)
		switch {
		case err == nil:
			fmt.Fprintf(out, "ok %x\n", secret)
		case errors.Is(err, core.ErrTransient):
			fmt.Fprintf(out, "transient\n")
		case errors.Is(err, core.ErrExhausted):
			fmt.Fprintf(out, "exhausted\n")
		default:
			return err
		}
	}
	return nil
}

// setupWALAppend measures the durable write path: recover an empty data
// directory, provision one architecture through the log-ahead store, and
// drive walAccesses fsynced accesses — a fresh directory per iteration.
func setupWALAppend(env *Env) (func() ([]byte, error), func(), error) {
	ctx := env.Ctx
	seed := env.Seed
	run := func() ([]byte, error) {
		dir, err := env.TempDir()
		if err != nil {
			return nil, err
		}
		reg := registry.New(1)
		store, _, err := openStore(dir, reg)
		if err != nil {
			return nil, err
		}
		defer func() { _ = store.Close() }()
		reg = registry.NewWithStore(1, store)
		arch, _, err := buildSmallArch(seed)
		if err != nil {
			return nil, err
		}
		e, err := reg.Provision(arch, seed, []byte("lemonbench secret 0123456789abcd"))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		fmt.Fprintf(&out, "id=%s\n", e.ID)
		if err := driveAccesses(ctx, &out, e, walAccesses); err != nil {
			return nil, err
		}
		total, okCount := e.Arch.Accesses()
		fmt.Fprintf(&out, "attempts=%d successes=%d\n", total, okCount)
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// setupWALReplay measures cold recovery from a pure log: the fixture
// directory holds one provision plus walAccesses access records and no
// snapshot, and every iteration replays it into a fresh registry.
func setupWALReplay(env *Env) (func() ([]byte, error), func(), error) {
	dir, err := env.TempDir()
	if err != nil {
		return nil, nil, err
	}
	seed := env.Seed
	if err := buildWALFixture(env.Ctx, dir, seed, false); err != nil {
		return nil, nil, err
	}
	run := func() ([]byte, error) { return recoverDir(dir) }
	return run, nil, nil
}

// setupWALSnapshotRecovery measures recovery through a snapshot: the
// fixture holds a compacted snapshot of the provisioned state plus a
// tail of access records appended after it.
func setupWALSnapshotRecovery(env *Env) (func() ([]byte, error), func(), error) {
	dir, err := env.TempDir()
	if err != nil {
		return nil, nil, err
	}
	seed := env.Seed
	if err := buildWALFixture(env.Ctx, dir, seed, true); err != nil {
		return nil, nil, err
	}
	run := func() ([]byte, error) { return recoverDir(dir) }
	return run, nil, nil
}

// buildWALFixture populates dir with one provisioned architecture and
// two batches of walAccesses accesses; with snapshot set, a snapshot is
// taken between the batches so recovery loads it and replays the tail.
func buildWALFixture(ctx context.Context, dir string, seed uint64, snapshot bool) error {
	reg := registry.New(1)
	store, _, err := openStore(dir, reg)
	if err != nil {
		return err
	}
	defer func() { _ = store.Close() }()
	reg = registry.NewWithStore(1, store)
	arch, _, err := buildSmallArch(seed)
	if err != nil {
		return err
	}
	e, err := reg.Provision(arch, seed, []byte("lemonbench secret 0123456789abcd"))
	if err != nil {
		return err
	}
	var sink bytes.Buffer
	if err := driveAccesses(ctx, &sink, e, walAccesses); err != nil {
		return err
	}
	if snapshot {
		if err := store.Snapshot(reg); err != nil {
			return err
		}
	}
	return driveAccesses(ctx, &sink, e, walAccesses)
}

// recoverDir runs one cold recovery of dir into a fresh registry and
// summarizes the recovered state.
func recoverDir(dir string) ([]byte, error) {
	reg := registry.New(1)
	store, stats, err := openStore(dir, reg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = store.Close() }()
	var out bytes.Buffer
	fmt.Fprintf(&out, "snapshot_epoch=%d snapshot_archs=%d provisions=%d accesses=%d segments=%d torn=%d\n",
		stats.SnapshotEpoch, stats.SnapshotArchitectures,
		stats.ReplayedProvisions, stats.ReplayedAccesses, stats.Segments, stats.TornBytesTruncated)
	reg.Range(func(e *registry.Entry) bool {
		total, okCount := e.Arch.Accesses()
		fmt.Fprintf(&out, "%s attempts=%d successes=%d alive=%t\n", e.ID, total, okCount, e.Arch.Alive())
		return true
	})
	return out.Bytes(), nil
}

// --- http -------------------------------------------------------------------

// provisionHTTP provisions one small architecture over HTTP and returns
// its ID.
func provisionHTTP(client *http.Client, baseURL string, seed uint64) (string, error) {
	body := fmt.Sprintf(
		`{"spec":{"alpha":6,"beta":8,"lab":30,"kfrac":0.1,"continuous_t":true},"secret_hex":"00112233445566778899aabbccddeeff","seed":%d}`,
		seed)
	resp, err := client.Post(baseURL+"/v1/architectures", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		return "", err
	}
	payload, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("provision: status %d: %s", resp.StatusCode, payload)
	}
	return extractID(payload)
}

// driveToLockout drives one architecture to lockout over HTTP, appending
// every status code (and every returned secret) to out. Each
// architecture's transcript is a pure function of its provisioning seed
// — its wear trajectory depends only on its own NEMS RNG — so the
// transcript is deterministic even when many of these run concurrently.
func driveToLockout(client *http.Client, baseURL, id string, out *bytes.Buffer) error {
	for attempt := 0; attempt < 100; attempt++ {
		resp, err := client.Post(baseURL+"/v1/architectures/"+id+"/access", "application/json", nil)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d\n", resp.StatusCode)
		switch resp.StatusCode {
		case http.StatusOK:
			out.Write(body)
		case http.StatusGone:
			return nil
		case http.StatusServiceUnavailable:
			// transient: the next copy takes over
		default:
			return fmt.Errorf("access: unexpected status %d: %s", resp.StatusCode, body)
		}
	}
	return fmt.Errorf("architecture %s not exhausted after 100 attempts", id)
}

// setupHTTPAccess measures the full service path: an httptest listener
// over a real internal/server; each iteration provisions a fresh
// architecture over HTTP and drives it to lockout, checksumming every
// status code and returned secret.
func setupHTTPAccess(env *Env) (func() ([]byte, error), func(), error) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	seed := env.Seed
	run := func() ([]byte, error) {
		id, err := provisionHTTP(client, ts.URL, seed)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		if err := driveToLockout(client, ts.URL, id, &out); err != nil {
			return nil, err
		}
		return out.Bytes(), nil
	}
	return run, ts.Close, nil
}

// saturatedWorkers is the concurrency of the access/saturated metric:
// this many clients hammer the durable access path at once, which is
// where group commit earns its keep (one fsync amortizes over the whole
// in-flight cohort instead of serializing it).
const saturatedWorkers = 16

// setupAccessSaturated measures saturated concurrent access throughput
// end to end: an httptest server over a WAL-backed registry, with
// saturatedWorkers clients each driving its own architecture (seeds
// seed+i) to lockout in parallel. The iteration time IS the saturation
// metric — total durable accesses per iteration is fixed by the seeds,
// so `bench compare` gates the throughput like any other median. The
// checksum concatenates the per-architecture transcripts in architecture
// order; interleaving across workers is scheduler noise, but each
// architecture's own transcript is deterministic.
func setupAccessSaturated(env *Env) (func() ([]byte, error), func(), error) {
	seed := env.Seed
	run := func() ([]byte, error) {
		dir, err := env.TempDir()
		if err != nil {
			return nil, err
		}
		reg := registry.New(32)
		store, _, err := openStore(dir, reg)
		if err != nil {
			return nil, err
		}
		defer func() { _ = store.Close() }()
		reg = registry.NewWithStore(32, store)
		srv := server.New(server.Config{Registry: reg})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		var ids [saturatedWorkers]string
		for i := range ids {
			if ids[i], err = provisionHTTP(client, ts.URL, seed+uint64(i)); err != nil {
				return nil, err
			}
		}

		var wg sync.WaitGroup
		var transcripts [saturatedWorkers]bytes.Buffer
		var errs [saturatedWorkers]error
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = driveToLockout(client, ts.URL, ids[i], &transcripts[i])
			}(i)
		}
		wg.Wait()
		var out bytes.Buffer
		for i := range ids {
			if errs[i] != nil {
				return nil, fmt.Errorf("worker %d (%s): %w", i, ids[i], errs[i])
			}
			fmt.Fprintf(&out, "arch=%s\n", ids[i])
			out.Write(transcripts[i].Bytes())
		}
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// setupAccessLeveled measures the wear-leveled access path in process:
// each iteration builds one spares-4 architecture and drives it to
// lockout through alternating targeted hot stress bursts and accesses,
// so the remap maintenance (PendingRemap scan + bank rotation) rides
// every round exactly as it does in the daemon. The checksum covers
// every outcome class, every revealed secret, and the final wear
// counters, so `bench compare` gates both the rotation cost and the
// bit-exact leveled trajectory.
func setupAccessLeveled(env *Env) (func() ([]byte, error), func(), error) {
	design, err := dse.Explore(smallSpec())
	if err != nil {
		return nil, nil, err
	}
	ctx := env.Ctx
	seed := env.Seed
	secret := []byte("lemonbench secret 0123456789abcd")
	run := func() ([]byte, error) {
		arch, err := core.BuildLeveled(design, secret,
			core.Leveling{Spares: 4, Epoch: 8}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		reg := registry.New(1)
		e, err := reg.Provision(arch, seed, secret)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		exhausted := false
		for i := 0; i < 200 && !exhausted; i++ {
			if _, err := e.Stress(ctx, nems.Environment{TempCelsius: 400},
				[]int{0, 1, 2}, 1); err != nil {
				// The last copy can die on a transient access, so the
				// following stress — not the next access — may be the
				// first call to observe lockout.
				if errors.Is(err, core.ErrExhausted) {
					fmt.Fprintf(&out, "stress-exhausted\n")
					exhausted = true
					break
				}
				return nil, err
			}
			got, err := e.Access(ctx, nems.RoomTemp)
			switch {
			case err == nil:
				fmt.Fprintf(&out, "ok %x\n", got)
			case errors.Is(err, core.ErrTransient):
				fmt.Fprintf(&out, "transient\n")
			case errors.Is(err, core.ErrExhausted):
				fmt.Fprintf(&out, "exhausted\n")
				exhausted = true
			default:
				return nil, err
			}
		}
		if !exhausted {
			return nil, fmt.Errorf("leveled architecture survived 200 stressed rounds")
		}
		fmt.Fprintf(&out, "remaps=%d spares=%d skew=%.17g stressed=%d\n",
			arch.Remaps(), arch.SparesRemaining(), arch.WearSkew(), arch.Stressed())
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// --- core -------------------------------------------------------------------

// daemonSpec is the β=8, LAB-1000, 10%-encoded design problem the
// daemon's paper and wide devices solve: α=14 gives the paper point (67
// copies of 140 switches), α=40 the wide point (23 copies of 1,131).
func daemonSpec(alpha float64) dse.Spec {
	return dse.Spec{
		Dist:        weibull.MustNew(alpha, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         1000,
		KFrac:       0.10,
		ContinuousT: true,
	}
}

// setupCoreBuild measures fabrication, the cost every provision and
// every restart pays to rebuild its architectures from their seeds: each
// iteration builds two paper-point architectures, one paper-point with
// 4 wear-leveling spares and one wide α=40 architecture from fixed
// seeds. The checksum is each one's first-copy wearout (see
// firstCopyTrajectory), which moves if a lifetime moves.
func setupCoreBuild(env *Env) (func() ([]byte, error), func(), error) {
	paper, err := dse.Explore(daemonSpec(14))
	if err != nil {
		return nil, nil, err
	}
	wide, err := dse.Explore(daemonSpec(40))
	if err != nil {
		return nil, nil, err
	}
	seed := env.Seed
	secret := []byte("lemonbench secret 0123456789abcd")
	builds := []struct {
		design dse.Design
		spares int // -1 = unleveled
	}{{paper, -1}, {paper, -1}, {paper, 4}, {wide, -1}}
	run := func() ([]byte, error) {
		var out bytes.Buffer
		for i, b := range builds {
			r := rng.New(seed).DeriveIndex("core-build-", i)
			var arch *core.Architecture
			var err error
			if b.spares < 0 {
				arch, err = core.Build(b.design, secret, r)
			} else {
				arch, err = core.BuildLeveled(b.design, secret, core.Leveling{Spares: b.spares, Epoch: 8}, r)
			}
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&out, "build %d: %d-of-%d x%d\n", i, b.design.K, b.design.N, b.design.Copies)
			if err := firstCopyTrajectory(&out, arch); err != nil {
				return nil, fmt.Errorf("build %d: %w", i, err)
			}
		}
		return out.Bytes(), nil
	}
	return run, nil, nil
}

// firstCopyTrajectory wears the first copy of a fresh architecture out
// at room temperature, without decoding: every logical slot takes 2α
// stress pulses, and a leveled copy rotates its spares in, as the
// registry would, until no slot conducts. One access then shows the next
// copy taking over. The transcript holds the conducted counts, that
// access's outcome, every first-copy switch's failure cycle (its
// lifetime plus one), the copy count and the RNG position, so a
// first-copy lifetime that moves by one cycle, or a draw made in another
// order, moves it. Keeping to one copy keeps the trajectory a small
// share of the build it checks.
func firstCopyTrajectory(out *bytes.Buffer, arch *core.Architecture) error {
	d := arch.Design()
	slots := make([]int, d.N)
	for i := range slots {
		slots[i] = i
	}
	pulses := int(2 * d.Spec.Dist.Alpha)
	for rounds := 0; ; rounds++ {
		if rounds > d.N {
			return errors.New("first copy still conducting after a stress round per slot")
		}
		n, err := arch.Stress(nems.RoomTemp, slots, pulses)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "stress %d\n", n)
		if n == 0 {
			break
		}
		if plan, ok := arch.PendingRemap(); ok {
			for _, p := range plan.Retire {
				if err := arch.Retire(plan.Copy, p); err != nil {
					return err
				}
			}
			if err := arch.ApplyRemap(plan.Copy, plan.Assign); err != nil {
				return err
			}
		}
	}
	_, err := arch.Access(nems.RoomTemp)
	fmt.Fprintf(out, "access: %v\n", err)
	st := arch.State()
	for _, sw := range st.Copies[0] {
		fmt.Fprintf(out, "%d ", sw.FailCycle)
	}
	fmt.Fprintf(out, "\ncopies=%d rng=%x\n", len(st.Copies), st.RNG)
	return nil
}

// extractID pulls the "id" field out of a provision response without
// depending on the full wire struct (the checksum must not absorb
// incidental response fields).
func extractID(body []byte) (string, error) {
	const key = `"id": "`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return "", fmt.Errorf("no id in provision response: %s", body)
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("unterminated id in provision response")
	}
	return string(rest[:j]), nil
}
