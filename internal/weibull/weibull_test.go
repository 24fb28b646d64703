package weibull

import (
	"math"
	"testing"
	"testing/quick"

	"lemonade/internal/montecarlo"
	"lemonade/internal/rng"
)

// sampleN draws n lifetimes from d in order.
func sampleN(d Dist, r *rng.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// uncensored wraps fully observed lifetimes for Fit.
func uncensored(times ...float64) []Obs {
	obs := make([]Obs, len(times))
	for i, t := range times {
		obs[i] = Obs{Time: t}
	}
	return obs
}

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("alpha=0 should be rejected")
	}
	if _, err := New(1, 0); err == nil {
		t.Error("beta=0 should be rejected")
	}
	if _, err := New(-2, 3); err == nil {
		t.Error("negative alpha should be rejected")
	}
	if _, err := New(math.NaN(), 3); err == nil {
		t.Error("NaN alpha should be rejected")
	}
	if _, err := New(10, 2); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid params")
		}
	}()
	MustNew(-1, 1)
}

func TestExponentialSpecialCase(t *testing.T) {
	// beta=1 reduces to Exponential(1/alpha)
	d := MustNew(10, 1)
	for _, x := range []float64{0.5, 1, 5, 20} {
		if got, want := d.CDF(x), 1-math.Exp(-x/10); !almostEq(got, want, 1e-12) {
			t.Errorf("CDF(%g) = %g, want %g", x, got, want)
		}
		if got, want := d.PDF(x), math.Exp(-x/10)/10; !almostEq(got, want, 1e-12) {
			t.Errorf("PDF(%g) = %g, want %g", x, got, want)
		}
	}
	if !almostEq(d.Mean(), 10, 1e-12) {
		t.Errorf("exponential mean = %g, want 10", d.Mean())
	}
}

func TestCDFReliabilityComplement(t *testing.T) {
	d := MustNew(14, 8)
	for _, x := range []float64{0, 1, 5, 10, 14, 20, 30} {
		if s := d.CDF(x) + d.Reliability(x); !almostEq(s, 1, 1e-12) {
			t.Errorf("CDF+R at x=%g is %g", x, s)
		}
	}
}

func TestReliabilityAtAlpha(t *testing.T) {
	// R(alpha) = 1/e regardless of beta
	for _, beta := range []float64{0.5, 1, 4, 12} {
		d := MustNew(42, beta)
		if got := d.Reliability(42); !almostEq(got, 1/math.E, 1e-12) {
			t.Errorf("R(alpha) = %g for beta=%g, want 1/e", got, beta)
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	d := MustNew(9.3, 12)
	// trapezoid integral of PDF from 0 to x should match CDF(x)
	x := 11.0
	const steps = 200000
	h := x / steps
	sum := 0.5 * (d.PDF(0) + d.PDF(x))
	for i := 1; i < steps; i++ {
		sum += d.PDF(float64(i) * h)
	}
	integral := sum * h
	if !almostEq(integral, d.CDF(x), 1e-6) {
		t.Errorf("∫pdf = %g, CDF = %g", integral, d.CDF(x))
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	d := MustNew(20, 12)
	for _, p := range []float64{0.001, 0.01, 0.5, 0.9, 0.999} {
		x := d.Quantile(p)
		if !almostEq(d.CDF(x), p, 1e-10) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, d.CDF(x))
		}
	}
	if d.Quantile(0) != 0 {
		t.Error("Quantile(0) != 0")
	}
	if !math.IsInf(d.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
}

func TestQuantileProperty(t *testing.T) {
	f := func(a, b, p float64) bool {
		alpha := 1 + math.Abs(math.Mod(a, 100))
		beta := 0.5 + math.Abs(math.Mod(b, 15))
		pp := math.Abs(math.Mod(p, 1))
		if pp == 0 {
			return true
		}
		d := MustNew(alpha, beta)
		x := d.Quantile(pp)
		return almostEq(d.CDF(x), pp, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLogReliabilityDeepTail(t *testing.T) {
	d := MustNew(10, 8)
	// at x = 40, (x/alpha)^beta = 4^8 = 65536 — Reliability underflows but
	// LogReliability must not.
	if got := d.LogReliability(40); !almostEq(got, -65536, 1e-9) {
		t.Errorf("LogReliability(40) = %g, want -65536", got)
	}
	if d.Reliability(40) != 0 {
		t.Log("note: linear-space reliability underflowed to 0 as expected")
	}
	if d.LogReliability(0) != 0 {
		t.Error("LogReliability(0) should be 0")
	}
}

func TestMeanMatchesSampleMean(t *testing.T) {
	d := MustNew(14, 8)
	r := rng.New(101)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	mean := sum / n
	if !almostEq(mean, d.Mean(), 0.01) {
		t.Errorf("sample mean %g vs analytic %g", mean, d.Mean())
	}
}

func TestSampleDistributionKS(t *testing.T) {
	// Kolmogorov-Smirnov style check: empirical CDF close to analytic.
	d := MustNew(10, 2)
	r := rng.New(55)
	const n = 50000
	samples := sampleN(d, r, n)
	for _, x := range []float64{3, 7, 10, 15} {
		count := 0
		for _, s := range samples {
			if s <= x {
				count++
			}
		}
		emp := float64(count) / n
		if math.Abs(emp-d.CDF(x)) > 0.01 {
			t.Errorf("empirical CDF(%g) = %g, analytic %g", x, emp, d.CDF(x))
		}
	}
}

func TestSampleCyclesFloorSemantics(t *testing.T) {
	// P(SampleCycles >= t) must equal R(t): the floor discretization makes
	// the simulator agree exactly with the continuous reliability model.
	d := MustNew(10, 4)
	r := rng.New(7)
	const n = 100000
	counts := make(map[uint64]int)
	for i := 0; i < n; i++ {
		counts[d.SampleCycles(r)]++
	}
	for _, tt := range []uint64{1, 5, 10, 12} {
		atLeast := 0
		for c, cnt := range counts {
			if c >= tt {
				atLeast += cnt
			}
		}
		emp := float64(atLeast) / n
		if math.Abs(emp-d.Reliability(float64(tt))) > 0.01 {
			t.Errorf("P(cycles >= %d) = %g, want R(%d) = %g", tt, emp, tt, d.Reliability(float64(tt)))
		}
	}
	// infant mortality: a sub-cycle distribution yields zero-cycle devices
	tiny := MustNew(0.01, 1)
	zeros := 0
	for i := 0; i < 100; i++ {
		if tiny.SampleCycles(r) == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Error("expected zero-cycle draws from a sub-cycle distribution")
	}
}

func TestDegradationWindow(t *testing.T) {
	d := MustNew(1.7, 12) // Fig 3a parameters
	t1, t2 := d.DegradationWindow(0.99, 0.01)
	if t1 >= t2 {
		t.Fatalf("window inverted: [%g, %g]", t1, t2)
	}
	if !almostEq(d.Reliability(t1), 0.99, 1e-9) || !almostEq(d.Reliability(t2), 0.01, 1e-9) {
		t.Errorf("window endpoints wrong: R(t1)=%g R(t2)=%g", d.Reliability(t1), d.Reliability(t2))
	}
	// Paper: α=1.7, β=12 gives reliability ~1 at t=1 and ~0 at t=2.
	if d.Reliability(1) < 0.99 {
		t.Errorf("R(1) = %g, paper expects close to 1", d.Reliability(1))
	}
	if d.Reliability(2) > 0.05 {
		t.Errorf("R(2) = %g, paper expects close to 0", d.Reliability(2))
	}
}

func TestFitRecoverParams(t *testing.T) {
	truth := MustNew(14, 8)
	r := rng.New(99)
	got, err := Fit(uncensored(sampleN(truth, r, 20000)...))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got.Alpha, truth.Alpha, 0.02) {
		t.Errorf("fit alpha = %g, want ~%g", got.Alpha, truth.Alpha)
	}
	if !almostEq(got.Beta, truth.Beta, 0.05) {
		t.Errorf("fit beta = %g, want ~%g", got.Beta, truth.Beta)
	}
}

func TestFitWithCensoring(t *testing.T) {
	truth := MustNew(20, 5)
	r := rng.New(123)
	const n = 20000
	cutoff := truth.Quantile(0.7) // censor the top 30%
	obs := make([]Obs, n)
	for i := range obs {
		x := truth.Sample(r)
		if x > cutoff {
			obs[i] = Obs{Time: cutoff, Censored: true}
		} else {
			obs[i] = Obs{Time: x}
		}
	}
	got, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got.Alpha, truth.Alpha, 0.05) {
		t.Errorf("censored fit alpha = %g, want ~%g", got.Alpha, truth.Alpha)
	}
	if !almostEq(got.Beta, truth.Beta, 0.1) {
		t.Errorf("censored fit beta = %g, want ~%g", got.Beta, truth.Beta)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(uncensored(5)); err != ErrInsufficientData {
		t.Errorf("single point should be insufficient, got %v", err)
	}
	if _, err := Fit(uncensored(1, -2)); err == nil {
		t.Error("negative time should error")
	}
	if _, err := Fit([]Obs{{Time: 3, Censored: true}, {Time: 4, Censored: true}}); err != ErrInsufficientData {
		t.Error("all-censored data should be insufficient")
	}
}

func TestVariationDraw(t *testing.T) {
	v := Variation{Nominal: MustNew(14, 8), CVAlpha: 0.1, CVBeta: 0.05}
	r := rng.New(77)
	const n = 50000
	var sumA, sumB float64
	for i := 0; i < n; i++ {
		d := v.Draw(r)
		if d.Validate() != nil {
			t.Fatal("variation produced invalid dist")
		}
		sumA += d.Alpha
		sumB += d.Beta
	}
	// log-normal with mean-one correction: E[multiplier] = 1
	if !almostEq(sumA/n, 14, 0.02) {
		t.Errorf("mean alpha under variation = %g, want ~14", sumA/n)
	}
	if !almostEq(sumB/n, 8, 0.02) {
		t.Errorf("mean beta under variation = %g, want ~8", sumB/n)
	}
}

func TestVariationZeroIsIdentity(t *testing.T) {
	v := Variation{Nominal: MustNew(10, 12)}
	r := rng.New(1)
	d := v.Draw(r)
	if d != v.Nominal {
		t.Errorf("zero variation should return nominal, got %v", d)
	}
}

func TestStringer(t *testing.T) {
	s := MustNew(10, 2).String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestSamplingPassesKSTest(t *testing.T) {
	// Goodness of fit of the sampler against the analytic CDF, the
	// strongest form of the sampler-correctness argument.
	d := MustNew(14, 8)
	r := rng.New(314)
	samples := sampleN(d, r, 5000)
	stat, p, err := montecarlo.KolmogorovSmirnov(samples, d.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("KS rejects the Weibull sampler: D=%g p=%g", stat, p)
	}
}

// TestPowMatchesMathPow pins the sampler's pow shortcut to math.Pow bit
// for bit: over a sweep of bases from the smallest subnormal through 1 to
// the largest finite float, and of exponents that include 1/β for the
// shapes the repo uses, the 0.5 boundary (math.Pow's Sqrt branch) and
// exponents above it (the fallback), plus the special values.
func TestPowMatchesMathPow(t *testing.T) {
	xs := []float64{
		math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200,
		1e-17, 1e-10, 1e-3, 0.1, 0.5, 0.999999999, 1, 1.000000001, 2, math.E, 10,
		1e3, 1e10, 1e100, 1e300, math.MaxFloat64,
		0, math.Copysign(0, -1), -1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	ys := []float64{
		1 / 2.5, 1 / 8.0, 1 / 12.0, 1 / 40.0, 0.5, 0.75, 1, 1 / 1.5, 2.5, 8,
		math.SmallestNonzeroFloat64, 1e-300, 0.1, 0.25, 0.4999999999999999,
		0, math.Copysign(0, -1), -0.125, -0.5, math.Inf(1), math.NaN(),
	}
	r := rng.New(9)
	for i := 0; i < 800; i++ {
		// Random bases spanning the whole exponent range, and the -ln(u)
		// values the sampler actually feeds pow.
		xs = append(xs, math.Ldexp(r.Float64Open(), r.Intn(2100)-1074), -math.Log(r.Float64Open()))
		ys = append(ys, r.Float64())
	}
	for _, x := range xs {
		for _, y := range ys {
			got, want := pow(x, y), math.Pow(x, y)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("pow(%b, %b) = %b, math.Pow = %b", x, y, got, want)
			}
		}
	}
}
