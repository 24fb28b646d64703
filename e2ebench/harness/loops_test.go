package harness

import (
	"context"
	"testing"
)

// TestOpenLoopTimesFromDue pins the open-loop latency definition: a
// request is timed from its due time, not from when it was sent, so a
// late generator and a stall both count against every request they delay.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var clock int64
	clk := loopClock{
		now: func() int64 { return clock },
		// Every wake-up is 7 ns late.
		sleep: func(_ context.Context, ns int64) error { clock += ns + 7; return nil },
		// Requests run inline, so each one stalls the next dispatch.
		spawn: func(fn func()) { fn() },
		wait:  func() {},
	}
	ops := []Op{{Seq: 0, DueNs: 10}, {Seq: 1, DueNs: 20}, {Seq: 2, DueNs: 25}}
	samples, err := openLoop(context.Background(), clk, ops, func(context.Context, Op) outcome {
		clock += 12 // every request takes 12 ns
		return outSuccess
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ latency, late, sendToEnd int64 }{
		{19, 7, 12},  // sent at 17, done at 29, due at 10
		{21, 9, 12},  // sent at 29 behind the first, done at 41, due at 20
		{28, 16, 12}, // sent at 41, done at 53, due at 25
	}
	if len(samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		s := samples[i]
		if s.latency() != w.latency || s.late != w.late || s.end-s.start != w.sendToEnd {
			t.Errorf("op %d: latency %d late %d send-to-end %d, want %d %d %d",
				i, s.latency(), s.late, s.end-s.start, w.latency, w.late, w.sendToEnd)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var clock int64
	clk := loopClock{
		now: func() int64 { return clock },
		sleep: func(ctx context.Context, ns int64) error {
			cancel()
			return ctx.Err()
		},
		spawn: func(fn func()) { fn() },
		wait:  func() {},
	}
	ops := []Op{{Seq: 0, DueNs: 0}, {Seq: 1, DueNs: 50}}
	samples, err := openLoop(ctx, clk, ops, func(context.Context, Op) outcome { return outSuccess })
	if err == nil || len(samples) != 1 {
		t.Fatalf("got %d samples, err %v; want 1 sample and the cancellation", len(samples), err)
	}
}
