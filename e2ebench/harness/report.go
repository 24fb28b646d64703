package harness

import (
	"fmt"
	"strings"
)

// endToEnd turns an untraced pass into the end-to-end report.
func (w *workload) endToEnd(p *pass) (*Result, error) {
	lat := p.latenciesMs()
	tail, ok := TailPercentile(lat)
	if !ok || tail.Percentile < 99 {
		return nil, fmt.Errorf("%d completed accesses are too few for a p99 with %d samples beyond it", len(lat), minBeyond)
	}
	completed := p.completedAccesses()
	r := &Result{
		Attempted:  len(p.samples),
		Failed:     p.failed(),
		GateErrors: p.gateErrors,
	}
	r.Correct = len(r.GateErrors) == 0
	r.Metrics = []Metric{
		{"setup_s", median(p.setupNs) / 1e9, "s"},
		{"access_p50_ms", Quantile(lat, 0.5), "ms"},
		{"access_per_s", float64(completed) / (float64(p.elapsedNs) / 1e9), "1/s"},
		{"cpu_us_per_access", float64(p.cpuNs) / 1e3 / float64(completed), "us"},
		{"heap_mb", float64(p.heapBytes) / (1 << 20), "MB"},
		{"recover_s", median(p.recoverNs) / 1e9, "s"},
	}
	// The tail and the failed ratio are reported as text only: see
	// README.md for why they stay out of the gated metrics.
	w.logf("samples: %d completed accesses; access_p99_ms %.4f ms with %d beyond it (highest percentile with %d beyond: p%g = %.4f ms)",
		len(lat), Quantile(lat, 0.99), len(lat)-1-rankIndex(len(lat), 0.99), minBeyond, tail.Percentile, tail.Value)
	w.logf("ops: %d attempted, %d failed, failed_ratio %.4g", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	w.logf("setups %s s, recoveries %s s (last replayed %d WAL records), window %.3f s",
		seconds(p.setupNs), seconds(p.recoverNs), p.replayed, float64(p.elapsedNs)/1e9)
	if w.opt.Workload == WorkloadDurable {
		if err := w.checkOpenLoop(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkOpenLoop validates a durable-fleet pass: the generator must have
// kept to its schedule, or the latencies measure the generator.
func (w *workload) checkOpenLoop(p *pass) error {
	late := genLateMs(p)
	offered := float64(len(p.samples)) / (float64(p.elapsedNs) / 1e9)
	w.logf("open loop: offered %d/s, achieved %.1f ops/s, generator late p99 %.3f ms (bound %d ms), access p99 %.3f ms (limit %d ms)",
		durableRate, offered, late, durableLateMs, Quantile(p.latenciesMs(), 0.99), durableP99LimitMs)
	if late > durableLateMs {
		return fmt.Errorf("invalid run: the generator dispatched %.3f ms late at p99 (bound %d ms)", late, durableLateMs)
	}
	return nil
}

// genLateMs is the open-loop generator's p99 lateness.
func genLateMs(p *pass) float64 {
	xs := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		xs = append(xs, float64(s.late)/1e6)
	}
	return Quantile(sortedCopy(xs), 0.99)
}

// seconds formats nanosecond durations as seconds.
func seconds(ns []float64) string {
	parts := make([]string, len(ns))
	for i, v := range ns {
		parts[i] = fmt.Sprintf("%.3f", v/1e9)
	}
	return strings.Join(parts, " ")
}
