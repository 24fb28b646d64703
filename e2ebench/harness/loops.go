package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loopClock is the open loop's view of time and concurrency; tests
// substitute a fake clock and run requests inline.
type loopClock struct {
	now   func() int64
	sleep func(ctx context.Context, ns int64) error
	// spawn runs fn concurrently; wait returns once every spawned fn has.
	spawn func(fn func())
	wait  func()
}

// maxNap bounds one generator sleep, so cancellation is noticed promptly.
const maxNap = int64(5 * time.Millisecond)

// realLoopClock paces with sleepNanos and runs each request on its own
// goroutine.
func realLoopClock(now func() int64, sleepNanos func(ns int64)) loopClock {
	var wg sync.WaitGroup
	return loopClock{
		now: now,
		sleep: func(ctx context.Context, ns int64) error {
			for deadline := now() + ns; ; {
				if err := ctx.Err(); err != nil {
					return err
				}
				left := deadline - now()
				if left <= 0 {
					return nil
				}
				sleepNanos(min(left, maxNap))
			}
		},
		spawn: func(fn func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn()
			}()
		},
		wait: wg.Wait,
	}
}

// openLoop sends every op at its due time, whether or not earlier ones
// have completed, and waits for all of them. Each sample is timed from
// its op's due time, so a stall is charged to every request it delays;
// late records how far behind the generator dispatched.
func openLoop(ctx context.Context, clk loopClock, ops []Op, do func(ctx context.Context, op Op) outcome) ([]sample, error) {
	// The generator keeps its OS thread so its sleeps wake on time
	// instead of waiting for a free processor.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	samples := make([]sample, len(ops))
	start := clk.now()
	sent := 0
	var err error
	for i := range ops {
		due := start + ops[i].DueNs
		if d := due - clk.now(); d > 0 {
			if err = clk.sleep(ctx, d); err != nil {
				break
			}
		}
		dispatched := clk.now()
		i := i
		clk.spawn(func() {
			op := ops[i]
			out := do(ctx, op)
			samples[i] = sample{seq: int64(op.Seq), arch: op.Arch, kind: op.Kind,
				due: due, start: dispatched, end: clk.now(), out: out, late: dispatched - due}
		})
		sent++
	}
	clk.wait()
	return samples[:sent], err
}

// closedLoop runs one caller per lane. A caller drives each architecture
// of its lane with drive until drive reports it is finished, then moves
// to the next. The loop stops once seconds have elapsed or any caller has
// finished its lane, so every caller stays busy for the whole window.
// drive performs one request and reports its outcome and whether the
// architecture is finished.
func closedLoop(ctx context.Context, now func() int64, lanes [][]int, seconds float64,
	drive func(ctx context.Context, seq int64, arch int) (out outcome, finished bool)) []sample {
	var (
		seq     atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
	)
	deadline := now() + int64(seconds*1e9)
	for _, lane := range lanes {
		lane := lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			defer func() {
				mu.Lock()
				samples = append(samples, mine...)
				mu.Unlock()
			}()
			for _, arch := range lane {
				for {
					if stop.Load() || ctx.Err() != nil || now() >= deadline {
						return
					}
					s := sample{seq: seq.Add(1), arch: arch, kind: OpAccess, start: now()}
					var finished bool
					s.out, finished = drive(ctx, s.seq, arch)
					s.end, s.due = now(), s.start
					mine = append(mine, s)
					if finished {
						break
					}
				}
			}
			stop.Store(true) // lane exhausted: end the window for everyone
		}()
	}
	wg.Wait()
	return samples
}
