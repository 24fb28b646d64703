package bench

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/checksums-seed42.golden")

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Seed:     42,
		N:        3,
		Warmup:   1,
		NowNanos: func() int64 { return time.Now().UnixNano() },
		Scratch:  t.TempDir(),
		Log:      t.Logf,
	}
}

// TestSuiteCoversHotPaths pins the metric inventory: the five hot paths
// of ISSUE 5 (montecarlo, DSE cold+cached, the codec, the WAL's three
// phases, HTTP) must all be present in a full run.
func TestSuiteCoversHotPaths(t *testing.T) {
	rep, err := Run(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"montecarlo/run_parallel",
		"dse/frontier_cold",
		"dse/explore_cached",
		"explore/parallel",
		"codec/shamir_split_combine",
		"codec/shamir_wide_combine",
		"wal/append",
		"wal/replay",
		"wal/snapshot_recovery",
		"http/access",
		"access/saturated",
		"access/leveled",
		"core/build",
	}
	got := make(map[string]Result, len(rep.Results))
	for _, r := range rep.Results {
		got[r.Name] = r
	}
	for _, name := range want {
		r, ok := got[name]
		if !ok {
			t.Errorf("metric %q missing from report", name)
			continue
		}
		if r.Checksum == "" {
			t.Errorf("metric %q has no workload checksum", name)
		}
		if r.N != 3 || r.Warmup != 1 {
			t.Errorf("metric %q: n=%d warmup=%d, want 3/1", name, r.N, r.Warmup)
		}
		if !(r.MedianNanos > 0) {
			t.Errorf("metric %q: non-positive median %v", name, r.MedianNanos)
		}
	}
	if len(rep.Results) != len(want) {
		t.Errorf("report has %d metrics, want %d", len(rep.Results), len(want))
	}
}

// TestSuiteDeterministicChecksums runs the full suite twice at the same
// seed and requires every non-timing field — the metric names and the
// workload checksums — to agree bit for bit. This is the "harness as
// integration test" property: if any hot path computes different bytes
// across two runs, the serving stack broke the determinism contract.
// The first run's checksums must also equal the recorded seed-42 golden,
// so a change that moves any workload's output fails here rather than
// only in the merge-base bench gate; -update rewrites the golden.
func TestSuiteDeterministicChecksums(t *testing.T) {
	cfg := testConfig(t)
	cfg.N, cfg.Warmup = 2, 1
	r1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkChecksumGolden(t, r1)
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Results) != len(r2.Results) {
		t.Fatalf("metric count differs: %d vs %d", len(r1.Results), len(r2.Results))
	}
	for i := range r1.Results {
		a, b := r1.Results[i], r2.Results[i]
		if a.Name != b.Name {
			t.Fatalf("metric order differs: %q vs %q", a.Name, b.Name)
		}
		if a.Checksum != b.Checksum {
			t.Errorf("%s: checksum drifted across runs: %s vs %s", a.Name, a.Checksum, b.Checksum)
		}
	}
	// The full gate between the two runs must not report coverage or
	// determinism regressions; timing fields are machine noise and are
	// not asserted here (the threshold formula is unit-tested below).
	regs, err := Compare(r1, r2, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		if r.Field == "checksum" || r.Field == "coverage" {
			t.Errorf("unexpected regression between identical runs: %s", r)
		}
	}
}

// checkChecksumGolden compares rep's "name checksum" lines with
// testdata/checksums-seed42.golden, rewriting the file first under -update.
func checkChecksumGolden(t *testing.T, rep *Report) {
	t.Helper()
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "%s %s\n", r.Name, r.Checksum)
	}
	got := b.String()
	path := filepath.Join("testdata", "checksums-seed42.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("seed-42 checksums differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestParallelChecksumsWorkerCountInvariant pins the scheduling-
// independence contract of the two parallel workloads: the montecarlo
// and frontier-sweep checksums must be identical at GOMAXPROCS ∈
// {1, 2, 8}. Worker count changes which goroutine computes each trial or
// design point, never the bytes.
func TestParallelChecksumsWorkerCountInvariant(t *testing.T) {
	run := func(workers int, filter string) string {
		t.Helper()
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		cfg := testConfig(t)
		cfg.N, cfg.Warmup = 1, 0
		cfg.Filter = filter
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 1 {
			t.Fatalf("filter %q matched %d metrics, want 1", filter, len(rep.Results))
		}
		return rep.Results[0].Checksum
	}
	for _, filter := range []string{"montecarlo/run_parallel", "explore/parallel"} {
		want := run(1, filter)
		for _, workers := range []int{2, 8} {
			if got := run(workers, filter); got != want {
				t.Errorf("%s: checksum at GOMAXPROCS=%d is %s, want %s (GOMAXPROCS=1)",
					filter, workers, got, want)
			}
		}
	}
}

// TestCompareAllocCeilings covers the ratchet: a new report over a
// configured ceiling regresses even when the old report was equally
// bad — the point of an absolute gate.
func TestCompareAllocCeilings(t *testing.T) {
	bad := Result{Name: "codec/shamir_split_combine", MedianNanos: 1e6, AllocsPerOp: 500, Checksum: "abc"}
	opts := CompareOpts{AllocCeilings: map[string]float64{"codec/shamir_split_combine": 48}}
	regs, err := Compare(report(bad), report(bad), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Field != "allocs_ceiling" {
		t.Fatalf("got %v, want one allocs_ceiling regression", regs)
	}
	good := bad
	good.AllocsPerOp = 12
	regs, err = Compare(report(bad), report(good), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("under-ceiling report flagged: %v", regs)
	}
}

// TestCompareSelfIsClean pins that a report gates cleanly against
// itself: zero delta must never trip any threshold.
func TestCompareSelfIsClean(t *testing.T) {
	cfg := testConfig(t)
	cfg.Filter = "codec"
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := Compare(rep, rep, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-compare reported regressions: %v", regs)
	}
}

func report(results ...Result) *Report {
	return &Report{SchemaVersion: SchemaVersion, Seed: 42, Results: results}
}

// TestCompareSyntheticSlowdown covers the gate's decision table: a 2×
// median slowdown fails naming the metric, jitter under every threshold
// passes, improvements pass, missing metrics fail,
// checksum mismatches at equal seeds fail.
func TestCompareSyntheticSlowdown(t *testing.T) {
	base := Result{Name: "wal/append", MedianNanos: 1e6, StddevNanos: 2e4,
		AllocsPerOp: 100, Checksum: "abc"}

	t.Run("2x slowdown regresses and names the metric", func(t *testing.T) {
		slow := base
		slow.MedianNanos = 2e6
		regs, err := Compare(report(base), report(slow), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 {
			t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
		}
		if regs[0].Metric != "wal/append" || regs[0].Field != "median_ns" {
			t.Fatalf("regression misattributed: %+v", regs[0])
		}
	})

	t.Run("jitter below every threshold passes", func(t *testing.T) {
		jitter := base
		jitter.MedianNanos = 1.05e6 // +5%: under the 10% relative threshold
		regs, err := Compare(report(base), report(jitter), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("jitter flagged as regression: %v", regs)
		}
	})

	t.Run("noise floor absorbs shifts on fast metrics", func(t *testing.T) {
		fast := base
		fast.MedianNanos = 5e3
		slower := fast
		slower.MedianNanos = 1.5e4 // 3× slower, but the shift is under the 20µs floor
		regs, err := Compare(report(fast), report(slower), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("sub-floor shift flagged: %v", regs)
		}
	})

	t.Run("improvement passes", func(t *testing.T) {
		faster := base
		faster.MedianNanos = 4e5
		regs, err := Compare(report(base), report(faster), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("improvement flagged as regression: %v", regs)
		}
	})

	t.Run("missing metric regresses coverage", func(t *testing.T) {
		regs, err := Compare(report(base), report(), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || regs[0].Field != "coverage" {
			t.Fatalf("got %v, want one coverage regression", regs)
		}
	})

	t.Run("checksum mismatch at equal seeds regresses", func(t *testing.T) {
		drift := base
		drift.Checksum = "def"
		regs, err := Compare(report(base), report(drift), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || regs[0].Field != "checksum" {
			t.Fatalf("got %v, want one checksum regression", regs)
		}
	})

	t.Run("checksum mismatch at different seeds is expected", func(t *testing.T) {
		drift := base
		drift.Checksum = "def"
		other := report(drift)
		other.Seed = 7
		regs, err := Compare(report(base), other, CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 0 {
			t.Fatalf("cross-seed checksum difference flagged: %v", regs)
		}
	})

	t.Run("alloc growth regresses", func(t *testing.T) {
		leaky := base
		leaky.AllocsPerOp = 500
		regs, err := Compare(report(base), report(leaky), CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != 1 || regs[0].Field != "allocs_per_op" {
			t.Fatalf("got %v, want one allocs regression", regs)
		}
	})
}

// TestReportFileRoundTrip checks WriteFile/ReadFile and the schema
// version rejection.
func TestReportFileRoundTrip(t *testing.T) {
	rep := report(Result{Name: "m", MedianNanos: 1, Checksum: "aa"})
	path := t.TempDir() + "/BENCH_test.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Name != "m" || got.Seed != 42 {
		t.Fatalf("round trip mangled report: %+v", got)
	}

	bad := report()
	bad.SchemaVersion = SchemaVersion + 1
	badPath := t.TempDir() + "/BENCH_bad.json"
	if err := bad.WriteFile(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(badPath); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("unknown schema accepted: %v", err)
	}
}

// TestRunRequiresClock pins that the harness refuses to run without an
// injected clock rather than silently reporting zeros.
func TestRunRequiresClock(t *testing.T) {
	if _, err := Run(context.Background(), Config{Seed: 1}); err == nil {
		t.Fatal("Run without NowNanos succeeded")
	}
}
