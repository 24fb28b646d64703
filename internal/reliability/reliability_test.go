package reliability

import (
	"math"
	"testing"

	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/structure"
	"lemonade/internal/weibull"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestCriteriaValidation(t *testing.T) {
	if err := DefaultCriteria.Validate(); err != nil {
		t.Errorf("default criteria invalid: %v", err)
	}
	bad := []Criteria{
		{MinWork: 0, MaxOverrun: 0.01},
		{MinWork: 1, MaxOverrun: 0.01},
		{MinWork: 0.99, MaxOverrun: 0},
		{MinWork: 0.5, MaxOverrun: 0.6},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, c)
		}
	}
}

func TestWorksThroughMonotone(t *testing.T) {
	m := Model{Dist: weibull.MustNew(14, 8), N: 100, K: 10}
	prev := 1.0
	for tt := 0; tt <= 40; tt++ {
		cur := m.WorksThrough(tt)
		if cur > prev+1e-12 {
			t.Fatalf("WorksThrough increased at t=%d", tt)
		}
		prev = cur
	}
	if m.WorksThrough(0) != 1 {
		t.Error("WorksThrough(0) must be 1")
	}
}

func TestAccessPMFSumsToOne(t *testing.T) {
	m := Model{Dist: weibull.MustNew(12, 8), N: 50, K: 5}
	pmf := m.AccessPMF()
	var sum float64
	for _, p := range pmf {
		if p < -1e-12 {
			t.Fatalf("negative pmf entry %g", p)
		}
		sum += p
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Errorf("pmf sums to %g", sum)
	}
}

func TestAccessMomentsAgainstMonteCarlo(t *testing.T) {
	d := weibull.MustNew(12, 8)
	m := Model{Dist: d, N: 30, K: 3}
	mean, variance := m.AccessMoments()
	r := rng.New(77)
	const trials = 3000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		p, err := structure.NewParallel(d, 30, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(structure.CountSuccessfulAccesses(p, nems.RoomTemp, 100))
		sum += got
		sumSq += got * got
	}
	empMean := sum / trials
	empVar := sumSq/trials - empMean*empMean
	// The simulator's ceil-discretization biases counts up by <1 access.
	if empMean < mean-0.2 || empMean > mean+1.2 {
		t.Errorf("MC mean %g vs analytic %g", empMean, mean)
	}
	if empVar > 4*variance+1 {
		t.Errorf("MC variance %g vs analytic %g", empVar, variance)
	}
}

func TestSystemExpectedTotal(t *testing.T) {
	m := Model{Dist: weibull.MustNew(12, 8), N: 50, K: 5}
	mean, _ := m.AccessMoments()
	s := System{Copy: m, Copies: 100}
	total, sd := s.ExpectedTotalAccesses()
	if !almostEq(total, 100*mean, 1e-9) {
		t.Errorf("system mean %g, want %g", total, 100*mean)
	}
	if sd <= 0 {
		t.Error("system sd should be positive")
	}
	// quantiles bracket the mean
	if s.UpperBoundQuantile(0.99) <= total || s.UpperBoundQuantile(0.01) >= total {
		t.Error("quantiles should bracket the mean")
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964}, {0.99, 2.326348}, {1e-4, -3.719016},
	}
	for _, c := range cases {
		if got := normQuantile(c.p); !almostEq(got, c.want, 1e-5) {
			t.Errorf("normQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("extreme quantiles should be infinite")
	}
}
