// Command lemonaded runs the lemonade key-access service: an HTTP daemon
// that provisions simulated limited-use architectures and serves
// wearout-consuming accesses against them.
//
// Subcommands:
//
//	serve    — run the daemon (default when flags are given directly)
//	loadgen  — drive a running daemon with concurrent access traffic
//	bench    — run the lemonbench macro-benchmark suite / gate two reports
//
// With -data-dir the daemon is durable: every provision and access is
// appended to a write-ahead log before the hardware fires (the log-ahead
// rule), snapshots compact the log periodically, and startup recovers
// the exact wearout state — a process restart never refreshes a budget.
//
// The daemon drains gracefully: SIGINT/SIGTERM stop the listener and wait
// for in-flight requests (bounded by -drain-timeout) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
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

func main() {
	args := os.Args[1:]
	cmd := "serve"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "serve":
		err = runServe(args)
	case "loadgen":
		err = runLoadgen(args)
	case "bench":
		err = runBench(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "lemonaded: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lemonaded: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: lemonaded [serve|loadgen|bench] [flags]

serve   [-addr host:port] [-addr-file path] [-drain-timeout d]
        [-data-dir path] [-snapshot-interval d] [-snapshot-records n]
        [-breaker-threshold n] [-breaker-cooldown d] [-access-timeout d]
        [-max-concurrent-access n] [-access-queue n]
        [-node-name name -ring-nodes name=url,... [-ring-seed n]]
loadgen -base URL [-workers n] [-seed n] [-alpha a] [-beta b] [-lab n] [-kfrac f]
        [-secret hex]
loadgen -cluster name=url,... [-ring-seed n] [-share-k k] [-share-n n] [-hedge d]
        [-workers n] ...
bench   [-seed n] [-n reps] [-warmup reps] [-filter substr] [-json] [-out file]
bench   compare OLD.json NEW.json [-threshold f] [-sigma f] [-floor-us n]
`)
}

// runServe starts the daemon and blocks until a signal drains it.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts using :0)")
	drain := fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	dataDir := fs.String("data-dir", "", "durable state directory (empty = in-memory, no persistence)")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "max time between snapshots (with -data-dir)")
	snapRecords := fs.Int("snapshot-records", 4096, "WAL records that trigger a snapshot (with -data-dir)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive store failures that open the circuit breaker (with -data-dir)")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "how long the breaker stays open before probing the store")
	accessTimeout := fs.Duration("access-timeout", 10*time.Second, "per-request deadline on the access path (0 = none)")
	maxAccess := fs.Int("max-concurrent-access", 256, "concurrent accesses before requests queue")
	accessQueue := fs.Int("access-queue", 1024, "queued accesses before requests are shed with 503")
	nodeName := fs.String("node-name", "", "this node's name in the cluster ring (enables cluster mode)")
	ringNodes := fs.String("ring-nodes", "", "cluster membership as name=url,name=url,... (with -node-name)")
	ringSeed := fs.Uint64("ring-seed", 42, "placement ring seed; must match every node and client")
	// Deliberately absent from usage(): chaos mode exists for
	// scripts/chaos.sh and fault-injection experiments, not operators.
	chaos := fs.String("chaos", "", "inject deterministic storage faults: seed=N[,ops=N][,density=F] (requires -data-dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Cluster identity: the ring is configuration, not discovery — every
	// node and every client must be handed the same (members, seed) pair
	// or provisions are refused as misrouted (421).
	var clusterNode *cluster.Node
	if *nodeName != "" || *ringNodes != "" {
		if *nodeName == "" || *ringNodes == "" {
			return fmt.Errorf("cluster mode needs both -node-name and -ring-nodes")
		}
		members, err := parseNodeList(*ringNodes)
		if err != nil {
			return err
		}
		clusterNode, err = cluster.NewNode(cluster.Config{Self: *nodeName, Nodes: members, Seed: *ringSeed})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lemonaded: cluster node %q in a %d-node ring (seed %d)\n",
			*nodeName, clusterNode.Ring().Size(), *ringSeed)
	}

	// The daemon is the composition root: the wall clock enters here
	// (cmd/ is exempt from the library determinism contract).
	wallNanos := func() int64 { return time.Now().UnixNano() }

	// One metric registry shared by the WAL store and the server, so
	// recovery and fsync instrumentation shows up on /metrics.
	met := metrics.NewRegistry()

	// Chaos mode: route the WAL through a deterministic fault injector.
	var storeFS fault.FS = fault.OS{}
	if *chaos != "" {
		if *dataDir == "" {
			return fmt.Errorf("-chaos requires -data-dir (faults target the durable store)")
		}
		plan, err := fault.ParsePlan(*chaos)
		if err != nil {
			return err
		}
		storeFS = fault.NewInjector(fault.OS{}, plan, fault.WithSleep(time.Sleep))
		fmt.Fprintf(os.Stderr, "lemonaded: CHAOS MODE: seed %d, %d faults scheduled against the durable store\n",
			plan.Seed, len(plan.Rules))
	}

	var reg *registry.Registry
	var store *wal.DiskStore
	var breaker *resilience.Breaker
	if *dataDir != "" {
		var err error
		store, err = wal.Open(wal.Config{
			Dir:               *dataDir,
			NowNanos:          wallNanos,
			Metrics:           met,
			SnapshotThreshold: *snapRecords,
			FS:                storeFS,
		})
		if err != nil {
			return fmt.Errorf("opening data dir: %w", err)
		}
		// The registry writes through the breaker: sustained store failure
		// flips the daemon into degraded read-only mode instead of burning
		// a doomed fsync per request.
		breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Store:            store,
			FailureThreshold: *breakerThreshold,
			Cooldown:         *breakerCooldown,
			NowNanos:         wallNanos,
			Metrics:          met,
		})
		reg = registry.NewWithStore(registry.DefaultShards, breaker)
		stats, err := store.Recover(reg)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		fmt.Fprintf(os.Stderr,
			"lemonaded: recovered %s: snapshot epoch %d (%d architectures), replayed %d records (%d provisions, %d accesses, %d stresses, %d retires, %d remaps) from %d segments",
			*dataDir, stats.SnapshotEpoch, stats.SnapshotArchitectures, stats.ReplayedRecords(),
			stats.ReplayedProvisions, stats.ReplayedAccesses, stats.ReplayedStresses,
			stats.ReplayedRetires, stats.ReplayedRemaps, stats.Segments)
		if stats.TornBytesTruncated > 0 {
			fmt.Fprintf(os.Stderr, ", truncated %d torn bytes", stats.TornBytesTruncated)
		}
		fmt.Fprintln(os.Stderr)
	}

	s := server.New(server.Config{
		Registry: reg,
		Metrics:  met,
		NowNanos: wallNanos,
		Breaker:  breaker,
		Shedder: resilience.NewShedder(resilience.ShedderConfig{
			MaxConcurrent: *maxAccess,
			MaxQueue:      *accessQueue,
			Metrics:       met,
		}),
		AccessTimeout: *accessTimeout,
		Cluster:       clusterNode,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing addr-file: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "lemonaded: listening on %s\n", bound)

	// Snapshot loop: compact when the WAL grows past the record
	// threshold or the interval elapses, whichever comes first.
	snapDone := make(chan struct{})
	var snapWG sync.WaitGroup
	if store != nil {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			ticker := time.NewTicker(*snapInterval)
			defer ticker.Stop()
			for {
				select {
				case <-snapDone:
					return
				case <-ticker.C:
					if store.RecordsSinceSnapshot() == 0 {
						continue // nothing new to compact
					}
				case <-store.SnapshotNeeded():
				}
				if err := store.Snapshot(s.Registry()); err != nil {
					fmt.Fprintf(os.Stderr, "lemonaded: snapshot: %v\n", err)
				}
			}
		}()
	}

	httpSrv := &http.Server{Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills hard
	fmt.Fprintln(os.Stderr, "lemonaded: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if store != nil {
		close(snapDone)
		snapWG.Wait()
		// A parting snapshot keeps the next startup's replay short; the
		// WAL already holds everything, so failure here loses nothing.
		if store.RecordsSinceSnapshot() > 0 {
			if err := store.Snapshot(s.Registry()); err != nil {
				fmt.Fprintf(os.Stderr, "lemonaded: final snapshot: %v\n", err)
			}
		}
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing store: %w", err)
		}
	}
	fmt.Fprintln(os.Stderr, "lemonaded: stopped")
	return nil
}

// runLoadgen provisions one architecture on a running daemon and races
// concurrent workers against it until lockout, reporting what each
// worker observed — a live demonstration of the concurrent budget
// invariant (and a handy smoke/load tool).
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	base := fs.String("base", "http://127.0.0.1:8080", "daemon base URL")
	workers := fs.Int("workers", 8, "concurrent access workers")
	seed := fs.Uint64("seed", 42, "fabrication seed")
	alpha := fs.Float64("alpha", 6, "Weibull mean lifetime (cycles)")
	beta := fs.Float64("beta", 8, "Weibull shape")
	lab := fs.Int("lab", 30, "lower access bound")
	kfrac := fs.Float64("kfrac", 0.1, "encoding fraction (0 = unencoded)")
	secretHex := fs.String("secret", "00112233445566778899aabbccddeeff", "secret to protect (hex)")
	clusterNodes := fs.String("cluster", "", "drive a cluster instead: membership as name=url,name=url,...")
	ringSeed := fs.Uint64("ring-seed", 42, "placement ring seed (with -cluster); must match the nodes")
	shareK := fs.Int("share-k", 2, "Shamir threshold: shares needed per access (with -cluster)")
	shareN := fs.Int("share-n", 0, "Shamir share count (0 = one per cluster node; with -cluster)")
	hedge := fs.Duration("hedge", 0, "hedge delay before consulting spare owners (0 = off; with -cluster)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *clusterNodes != "" {
		return runClusterLoadgen(clusterLoadgenConfig{
			nodes: *clusterNodes, ringSeed: *ringSeed,
			shareK: *shareK, shareN: *shareN, hedge: *hedge,
			workers: *workers, seed: *seed, secretHex: *secretHex,
			spec: api.SpecRequest{Alpha: *alpha, Beta: *beta, LAB: *lab, KFrac: *kfrac, ContinuousT: true},
		})
	}

	client, err := api.NewClient(*base, api.WithTimeout(30*time.Second))
	if err != nil {
		return err
	}
	ctx := context.Background()

	prov, err := client.Provision(ctx, api.ProvisionRequest{
		Spec: api.SpecRequest{
			Alpha: *alpha, Beta: *beta, LAB: *lab,
			KFrac: *kfrac, ContinuousT: true,
		},
		SecretHex: *secretHex,
		Seed:      *seed,
	})
	if err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	fmt.Printf("provisioned %s: %d devices, designed window [%d, %d] accesses\n",
		prov.ID, prov.Design.TotalDevices,
		prov.Design.GuaranteedMinAccesses, prov.Design.MaxAllowedAccesses)

	var successes, transients atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := client.Access(ctx, prov.ID, api.AccessRequest{})
				switch {
				case err == nil:
					successes.Add(1)
				case api.IsTransient(err):
					transients.Add(1)
				case api.IsExhausted(err):
					return
				default:
					fmt.Fprintf(os.Stderr, "lemonaded: access: %v\n", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("lockout after %d successful accesses (%d transients) across %d workers in %v\n",
		successes.Load(), transients.Load(), *workers, elapsed.Round(time.Millisecond))
	if n := int(successes.Load()); n < prov.Design.GuaranteedMinAccesses || n > prov.Design.MaxAllowedAccesses {
		return fmt.Errorf("successes %d outside designed window [%d, %d]",
			n, prov.Design.GuaranteedMinAccesses, prov.Design.MaxAllowedAccesses)
	}
	fmt.Println("within designed window: budget invariant held under concurrency")
	return nil
}

// clusterLoadgenConfig carries the -cluster mode parameters.
type clusterLoadgenConfig struct {
	nodes     string
	ringSeed  uint64
	shareK    int
	shareN    int
	hedge     time.Duration
	workers   int
	seed      uint64
	secretHex string
	spec      api.SpecRequest
}

// runClusterLoadgen provisions one k-of-n cluster architecture across
// the ring and races workers against it until the global lockout,
// verifying the cluster-wide budget ceiling with no coordinator on the
// read path: reveals ≤ ⌈n·M/k⌉ where M is one share's hardware budget
// (+ the per-copy overrun slack).
func runClusterLoadgen(cfg clusterLoadgenConfig) error {
	members, err := parseNodeList(cfg.nodes)
	if err != nil {
		return err
	}
	if cfg.shareN == 0 {
		cfg.shareN = len(members)
	}
	opts := []api.ClusterOption{api.WithClusterNodeOptions(api.WithTimeout(30 * time.Second))}
	if cfg.hedge > 0 {
		opts = append(opts, api.WithHedgeDelay(cfg.hedge))
	}
	cc, err := api.NewClusterClient(members, cfg.ringSeed, opts...)
	if err != nil {
		return err
	}
	ctx := context.Background()

	prov, err := cc.Provision(ctx, api.ClusterProvision{
		Spec: cfg.spec, SecretHex: cfg.secretHex, Seed: cfg.seed,
		ShareK: cfg.shareK, ShareN: cfg.shareN,
	})
	if err != nil {
		return fmt.Errorf("cluster provision: %w", err)
	}
	fmt.Printf("provisioned %s: %d-of-%d shares on %v (ring seed %d)\n",
		prov.ClusterID, prov.ShareK, prov.ShareN, prov.Owners, cfg.ringSeed)

	// One share's design gives the per-share hardware budget M; the
	// cluster-wide ceiling is ⌈n·M/k⌉ since every reveal consumes at
	// least k share successes from a pool of n·M (plus per-copy overrun
	// slack, same convention as the single-node window check).
	sts, err := cc.ShareStatuses(ctx, prov.ClusterID)
	if err != nil {
		return err
	}
	var design *api.DesignResponse
	for _, st := range sts {
		if st != nil {
			design = &st.Design
			break
		}
	}
	if design == nil {
		return fmt.Errorf("no share owner reachable for status")
	}
	perShare := design.MaxAllowedAccesses + 2*design.Copies
	ceiling := (cfg.shareN*perShare + cfg.shareK - 1) / cfg.shareK
	fmt.Printf("per-share budget %d, global ceiling %d reveals\n", perShare, ceiling)

	var reveals, transients, decodeFails atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := cc.Access(ctx, prov.ClusterID, api.AccessRequest{})
				switch {
				case err == nil:
					if res.SecretHex != cfg.secretHex {
						fmt.Fprintf(os.Stderr, "lemonaded: WRONG SECRET reconstructed\n")
						return
					}
					reveals.Add(1)
				case api.IsTransient(err):
					transients.Add(1)
				case api.IsExhausted(err):
					return
				default:
					decodeFails.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("global lockout after %d reveals (%d transients, %d decode failures) across %d workers in %v\n",
		reveals.Load(), transients.Load(), decodeFails.Load(), cfg.workers, elapsed.Round(time.Millisecond))
	if n := int(reveals.Load()); n > ceiling {
		return fmt.Errorf("GLOBAL BUDGET OVERRUN: %d reveals > ceiling %d", n, ceiling)
	} else if n == 0 {
		return fmt.Errorf("no reveals before lockout — cluster misconfigured?")
	}
	fmt.Println("within global ceiling: cluster budget invariant held with no coordinator")
	return nil
}

// parseNodeList parses "name=url,name=url,..." cluster membership. Space
// around each member, name and URL is ignored.
func parseNodeList(s string) (map[string]string, error) {
	members := map[string]string{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, url, ok := strings.Cut(kv, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad ring member %q (want name=url)", kv)
		}
		if _, dup := members[name]; dup {
			return nil, fmt.Errorf("duplicate ring member %q", name)
		}
		members[name] = url
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("empty ring member list")
	}
	return members, nil
}
