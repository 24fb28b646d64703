package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"lemonade/internal/bench"
)

// runBench runs the lemonbench macro-benchmark suite, or — with the
// "compare" verb — gates one report against another:
//
//	lemonaded bench [-seed n] [-n reps] [-warmup reps] [-filter substr]
//	                [-json] [-out file] [-quiet]
//	lemonaded bench compare OLD.json NEW.json [-threshold f] [-sigma f]
//	                [-floor-us n]
//
// compare exits non-zero when the new report regresses, printing one
// line per offending metric.
func runBench(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return runBenchCompare(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	seed := fs.Uint64("seed", 42, "workload seed (same seed, same machine => identical non-timing fields)")
	n := fs.Int("n", 10, "measured repetitions per metric")
	warmup := fs.Int("warmup", 2, "discarded warmup repetitions per metric")
	filter := fs.String("filter", "", "only run metrics whose name contains this substring")
	jsonOut := fs.Bool("json", false, "write the report as JSON to stdout")
	out := fs.String("out", "", "also write the report to this file")
	quiet := fs.Bool("quiet", false, "suppress per-metric progress on stderr")
	scratch := fs.String("scratch", "", "directory for WAL scratch data (default: OS temp dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q (did you mean 'bench compare OLD NEW'?)", fs.Arg(0))
	}

	cfg := bench.Config{
		Seed:   *seed,
		N:      *n,
		Warmup: *warmup,
		Filter: *filter,
		// The benchmark clock is the composition root's monotonic clock:
		// cmd/ is exempt from the library determinism contract.
		NowNanos: func() int64 { return time.Now().UnixNano() },
		Scratch:  *scratch,
	}
	if !*quiet {
		cfg.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}

	rep, err := bench.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	rep.GitSHA = gitSHA()

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "lemonaded: wrote %s (%d metrics)\n", *out, len(rep.Results))
	}
	if *jsonOut {
		return rep.Encode(os.Stdout)
	}
	return nil
}

// runBenchCompare loads two reports and applies the noise-aware gate.
func runBenchCompare(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.10, "relative median-shift threshold")
	sigma := fs.Float64("sigma", 3, "pooled-stddev multiplier in the noise term")
	floorUS := fs.Float64("floor-us", 20, "absolute noise floor in microseconds")
	noRatchet := fs.Bool("no-ratchet", false, "disable the absolute allocs/op ceilings on the codec and simulation metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("bench compare: want exactly two report files, got %d", fs.NArg())
	}
	old, err := bench.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := bench.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	ceilings := bench.DefaultAllocCeilings
	if *noRatchet {
		ceilings = nil
	}
	regs, err := bench.Compare(old, cur, bench.CompareOpts{
		RelThreshold:  *threshold,
		SigmaFactor:   *sigma,
		MinDeltaNanos: *floorUS * 1000,
		AllocCeilings: ceilings,
	})
	if err != nil {
		return err
	}
	retired := bench.Retired(old, cur)
	for _, r := range retired {
		fmt.Fprintf(os.Stderr, "retired %s\n", r)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
		}
		return fmt.Errorf("bench compare: %d regression(s) between %s and %s",
			len(regs), fs.Arg(0), fs.Arg(1))
	}
	fmt.Fprintf(os.Stderr, "bench compare: OK — %d metrics within thresholds (%s vs %s)\n",
		len(old.Results)-len(retired), fs.Arg(0), fs.Arg(1))
	return nil
}

// gitSHA stamps reports with the working tree's commit; benchmarking
// outside a git checkout is fine, the field just stays empty.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
