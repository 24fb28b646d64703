package harness

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly in the per-layer mode
// (an untraced and a traced pass), so the stacks, the tracer, the gate
// and the report run together, under -race too. It checks that every
// correctness check passes and that every per-layer metric is reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("composes full stacks")
	}
	origin := time.Now()
	env := Env{
		NowNanos:   func() int64 { return int64(time.Since(origin)) },
		CPUNanos:   func() int64 { return int64(time.Since(origin)) },
		SleepNanos: func(ns int64) { time.Sleep(time.Duration(ns)) },
		DataDir:    t.TempDir(),
		Procs:      2,
		Log:        io.Discard,
	}
	var names []string
	for _, wl := range Workloads {
		res, err := Run(context.Background(), env, Options{Workload: wl, Seed: 5, Seconds: 0.4, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if !res.Correct || len(res.GateErrors) > 0 {
			t.Errorf("%s: correctness gate failed: %v", wl, res.GateErrors)
		}
		if res.Failed > 0 {
			t.Errorf("%s: %d of %d ops failed", wl, res.Failed, res.Attempted)
		}
		got := make([]string, len(res.Metrics))
		for i, m := range res.Metrics {
			got[i] = m.Name
		}
		if names == nil {
			names = got
		} else if len(got) != len(names) {
			t.Errorf("%s reports %d metrics, %s reported %d", wl, len(got), Workloads[0], len(names))
		}
	}
}
