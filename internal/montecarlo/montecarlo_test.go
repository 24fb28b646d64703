package montecarlo

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"lemonade/internal/rng"
)

func TestRunDeterministic(t *testing.T) {
	f := func(r *rng.RNG) float64 { return r.Float64() }
	a := Run(42, 500, f)
	b := Run(42, 500, f)
	if a.Mean != b.Mean || a.SD != b.SD {
		t.Error("same-seed runs should be identical")
	}
	c := Run(43, 500, f)
	if a.Mean == c.Mean {
		t.Error("different seeds should differ")
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	f := func(r *rng.RNG) float64 { return r.NormFloat64() }
	a := Run(7, 1000, f)
	b, err := RunParallel(context.Background(), 7, 1000, f)
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	if a.Mean != b.Mean || a.Min != b.Min || a.Max != b.Max {
		t.Errorf("parallel run diverged: %v vs %v", a, b)
	}
}

func TestRunParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	go func() {
		<-started
		cancel()
	}()
	_, err := RunParallel(ctx, 7, 1_000_000, func(r *rng.RNG) float64 {
		once.Do(func() { close(started) })
		<-ctx.Done() // simulate a slow trial that outlives the client
		return r.Float64()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunParallel returned %v, want context.Canceled", err)
	}
}

func TestRunParallelPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := RunParallel(ctx, 1, 100, func(r *rng.RNG) float64 { return r.Float64() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.Trials != 0 {
		t.Errorf("cancelled run reported %d trials", sum.Trials)
	}
}

func TestSummaryStatistics(t *testing.T) {
	// constant trials
	s := Run(1, 100, func(r *rng.RNG) float64 { return 5 })
	if s.Mean != 5 || s.SD != 0 || s.Min != 5 || s.Max != 5 {
		t.Errorf("constant summary wrong: %v", s)
	}
	if s.Median() != 5 || s.Quantile(0.9) != 5 {
		t.Error("constant quantiles wrong")
	}
}

func TestUniformMoments(t *testing.T) {
	s := Run(11, 50000, func(r *rng.RNG) float64 { return r.Float64() })
	if math.Abs(s.Mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %g", s.Mean)
	}
	if math.Abs(s.SD-math.Sqrt(1.0/12)) > 0.01 {
		t.Errorf("uniform sd = %g", s.SD)
	}
	if math.Abs(s.Median()-0.5) > 0.02 {
		t.Errorf("uniform median = %g", s.Median())
	}
	if math.Abs(s.Quantile(0.9)-0.9) > 0.02 {
		t.Errorf("uniform q90 = %g", s.Quantile(0.9))
	}
	if s.Quantile(0) != s.Min || s.Quantile(1) != s.Max {
		t.Error("extreme quantiles should hit min/max")
	}
}

func TestEmptySummary(t *testing.T) {
	s := Run(1, 0, func(r *rng.RNG) float64 { return 1 })
	if !math.IsNaN(s.Mean) || !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty run should produce NaNs")
	}
}

func TestProportion(t *testing.T) {
	p, lo, hi := Proportion(3, 20000, func(r *rng.RNG) bool { return r.Float64() < 0.3 })
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("proportion = %g", p)
	}
	if !(lo < 0.3 && 0.3 < hi) {
		t.Errorf("CI [%g, %g] should contain 0.3", lo, hi)
	}
	if hi-lo > 0.02 {
		t.Errorf("CI too wide for 20k trials: [%g, %g]", lo, hi)
	}
}

func TestStringer(t *testing.T) {
	s := Run(1, 10, func(r *rng.RNG) float64 { return 1 })
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestKolmogorovSmirnovAcceptsTrueDistribution(t *testing.T) {
	r := rng.New(101)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = r.Float64()
	}
	d, p, err := KolmogorovSmirnov(samples, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("KS rejected the true distribution: D=%g p=%g", d, p)
	}
}

func TestKolmogorovSmirnovRejectsWrongDistribution(t *testing.T) {
	r := rng.New(102)
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = r.Float64() * r.Float64() // clearly not uniform
	}
	_, p, err := KolmogorovSmirnov(samples, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("KS failed to reject a wrong distribution: p=%g", p)
	}
}

func TestKolmogorovSmirnovValidation(t *testing.T) {
	if _, _, err := KolmogorovSmirnov([]float64{1, 2}, func(x float64) float64 { return 0.5 }); err == nil {
		t.Error("tiny sample should error")
	}
	samples := make([]float64, 10)
	if _, _, err := KolmogorovSmirnov(samples, func(x float64) float64 { return 2 }); err == nil {
		t.Error("invalid CDF should error")
	}
}
