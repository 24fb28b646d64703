// Package montecarlo is the simulation harness used by the experiments:
// it runs independent trials with per-trial deterministic RNG streams
// (reproducible regardless of scheduling), optionally in parallel, and
// aggregates summary statistics.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"lemonade/internal/rng"
)

// Trial computes one observation from its private RNG stream.
type Trial func(r *rng.RNG) float64

// Summary aggregates the observations of a run.
type Summary struct {
	Trials int
	Mean   float64
	SD     float64 // sample standard deviation
	Min    float64
	Max    float64
	values []float64 // sorted
}

// Quantile returns the empirical q-quantile (0 <= q <= 1).
func (s Summary) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := q * float64(len(s.values)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// Median returns the empirical median.
func (s Summary) Median() float64 { return s.Quantile(0.5) }

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.4g [%.6g, %.6g]", s.Trials, s.Mean, s.SD, s.Min, s.Max)
}

// Run executes trials sequentially with per-trial derived streams.
// Trial i always sees the same stream for a given seed.
func Run(seed uint64, trials int, f Trial) Summary {
	vals := make([]float64, trials)
	d := rng.New(seed).IndexDeriver(trialLabel)
	var tr rng.RNG
	for i := range vals {
		d.SeedInto(&tr, i)
		vals[i] = f(&tr)
	}
	return summarize(vals)
}

// trialLabel is the per-trial stream derivation label; rng.DeriveIndex
// with this label and the trial index defines each trial's stream, and
// has since the first release — changing it would shift every simulation.
const trialLabel = "trial-"

// chunkSize is the dispatch granularity of RunParallel: workers claim
// blocks of this many consecutive trial indices from an atomic counter.
// Chunking amortizes the atomic op; which worker runs a trial never
// affects its stream (derivation is by index), so results stay
// bit-identical to Run at any worker count.
const chunkSize = 64

// RunParallel is Run across GOMAXPROCS workers. Results are identical to
// Run for the same seed: stream derivation depends only on the trial index.
//
// The context cancels the run between trials: dispatch stops, in-flight
// trials finish, and ctx.Err() is returned with a zero Summary — the hook
// a server uses to abandon simulations when the client disconnects or the
// process drains for shutdown. A context that can never be cancelled
// (context.Background, context.TODO) takes a dispatch path with no
// cancellation checks, bit-identical to the pre-context behavior.
func RunParallel(ctx context.Context, seed uint64, trials int, f Trial) (Summary, error) {
	vals := make([]float64, trials)
	base := rng.New(seed)
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	if workers < 1 {
		workers = 1
	}
	done := ctx.Done()
	d := base.IndexDeriver(trialLabel)
	if workers == 1 {
		// Inline path: no goroutines, no dispatch overhead. Cancellation
		// is still honored between trials.
		var tr rng.RNG
		for i := 0; i < trials; i++ {
			if done != nil {
				select {
				case <-done:
					return Summary{}, ctx.Err()
				default:
				}
			}
			d.SeedInto(&tr, i)
			vals[i] = f(&tr)
		}
		if err := ctx.Err(); err != nil {
			return Summary{}, err
		}
		return summarize(vals), nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr rng.RNG
			for {
				start := int(next.Add(chunkSize)) - chunkSize
				if start >= trials {
					return
				}
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				end := start + chunkSize
				if end > trials {
					end = trials
				}
				for i := start; i < end; i++ {
					d.SeedInto(&tr, i)
					vals[i] = f(&tr)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Summary{}, err
	}
	return summarize(vals), nil
}

func summarize(vals []float64) Summary {
	s := Summary{Trials: len(vals)}
	if len(vals) == 0 {
		s.Mean, s.SD = math.NaN(), math.NaN()
		return s
	}
	var sum, sumSq float64
	s.Min, s.Max = vals[0], vals[0]
	for _, v := range vals {
		sum += v
		sumSq += v * v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	n := float64(len(vals))
	s.Mean = sum / n
	variance := (sumSq - sum*sum/n) / math.Max(1, n-1)
	if variance < 0 {
		variance = 0
	}
	s.SD = math.Sqrt(variance)
	sorted := append([]float64(nil), vals...)
	sortValues(sorted)
	s.values = sorted
	return s
}

// sortValues sorts ascending. Inputs free of NaNs and sign bits — every
// lifetime distribution, every probability — take an LSD radix sort on
// the IEEE-754 bit patterns, which for non-negative floats are
// order-isomorphic to the values: the result is byte-identical to the
// comparison sort (equal elements are bit-identical, so their relative
// order is unobservable). Anything else falls back to slices.Sort, the
// previous behavior, keeping quantiles (and every checksum over them)
// unchanged for all inputs.
func sortValues(vals []float64) {
	if len(vals) < 256 {
		slices.Sort(vals)
		return
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.Signbit(v) {
			slices.Sort(vals)
			return
		}
	}
	buf := make([]float64, len(vals))
	src, dst := vals, buf
	var counts [256]int
	for shift := 0; shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, v := range src {
			counts[byte(math.Float64bits(v)>>shift)]++
		}
		skip := false
		for _, c := range counts {
			if c == len(src) {
				skip = true
				break
			}
			if c > 0 {
				break
			}
		}
		if skip {
			continue
		}
		pos := 0
		for i, c := range counts {
			counts[i] = pos
			pos += c
		}
		for _, v := range src {
			b := byte(math.Float64bits(v) >> shift)
			dst[counts[b]] = v
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &vals[0] {
		copy(vals, src)
	}
}

// Proportion is a convenience for Bernoulli trials: it runs f and reports
// the success fraction with a Wilson 95% interval.
func Proportion(seed uint64, trials int, f func(r *rng.RNG) bool) (p, lo, hi float64) {
	succ := 0
	d := rng.New(seed).IndexDeriver(trialLabel)
	var tr rng.RNG
	for i := 0; i < trials; i++ {
		d.SeedInto(&tr, i)
		if f(&tr) {
			succ++
		}
	}
	n := float64(trials)
	p = float64(succ) / n
	const z = 1.96
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	return p, math.Max(0, center-half), math.Min(1, center+half)
}
