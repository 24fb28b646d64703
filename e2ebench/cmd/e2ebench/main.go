// Command e2ebench runs one workload of the end-to-end access benchmark
// and prints its report; the last line of standard output is the JSON
// result. It is the composition root: the wall clock, the process CPU
// clock (getrusage) and the host facts enter here and nowhere below.
//
//	e2ebench --workload durable-fleet --seed 1 --seconds 10 --trace 0
//
// The exit status is 0 when the run completed and every correctness
// check passed, 1 otherwise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lemonade/e2ebench/harness"
)

func main() { os.Exit(run()) }

// runTimeout caps one run well inside the 180 s a run may take.
const runTimeout = 170 * time.Second

func run() int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: durable-fleet, wide-memory or cluster-paper")
	seed := fs.Uint64("seed", 1, "workload seed; the whole schedule derives from it")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	dataRoot := fs.String("data-dir", ".bench_build/data", "parent of the run's temporary data directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*dataRoot, *workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	origin := time.Now()
	env := harness.Env{
		NowNanos:   func() int64 { return int64(time.Since(origin)) },
		CPUNanos:   cpuNanos,
		SleepNanos: sleepNanos,
		DataDir:    dir,
		Procs:      runtime.NumCPU(),
		Log:        os.Stderr,
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		env.Procs, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("data dir: %s on %s; flush policy: one fsync per WAL commit group (daemon defaults)\n",
		dir, fsType(dir))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	res, err := harness.Run(ctx, env, harness.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	for _, g := range res.GateErrors {
		fmt.Fprintf(os.Stderr, "e2ebench: correctness: %s\n", g)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s is not a number\n", m.Name)
			return 1
		}
		fmt.Printf("%-42s %16.6f %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuNanos is the process's user+sys CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sleepNanos sleeps the calling thread with nanosleep(2), which wakes
// within tens of microseconds where time.Sleep wakes within a millisecond.
func sleepNanos(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// fsType names the filesystem holding dir, for the provenance line.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs magic %#x", st.Type)
}
