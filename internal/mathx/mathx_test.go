package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"lemonade/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLogChooseSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {10, 5, 252},
		{52, 5, 2598960}, {60, 30, 1.1826458156486142e+17},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(float64(c.n), float64(c.k)))
		if !almostEq(got, c.want, 1e-10) {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestLogChooseOutOfRange(t *testing.T) {
	if !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("C(5,-1) should be 0 (log -Inf)")
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("C(5,6) should be 0 (log -Inf)")
	}
}

func TestChoosePascalIdentity(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k), through the log-space coefficient.
	Choose := func(n, k int) float64 { return math.Exp(LogChoose(float64(n), float64(k))) }
	for n := 2; n <= 40; n++ {
		for k := 1; k < n; k++ {
			lhs := Choose(n, k)
			rhs := Choose(n-1, k-1) + Choose(n-1, k)
			if !almostEq(lhs, rhs, 1e-9) {
				t.Fatalf("Pascal identity fails at n=%d k=%d: %g vs %g", n, k, lhs, rhs)
			}
		}
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x (uniform CDF)
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-12) {
			t.Errorf("I_%g(1,1) = %g, want %g", x, got, x)
		}
	}
	// I_x(2, 2) = 3x^2 - 2x^3
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); !almostEq(got, want, 1e-12) {
			t.Errorf("I_%g(2,2) = %g, want %g", x, got, want)
		}
	}
	// symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
	for _, x := range []float64{0.1, 0.37, 0.5, 0.93} {
		lhs := RegIncBeta(3.5, 7.2, x)
		rhs := 1 - RegIncBeta(7.2, 3.5, 1-x)
		if !almostEq(lhs, rhs, 1e-10) {
			t.Errorf("symmetry fails at x=%g: %g vs %g", x, lhs, rhs)
		}
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 {
		t.Error("I_0 should be 0")
	}
	if RegIncBeta(2, 3, 1) != 1 {
		t.Error("I_1 should be 1")
	}
	if !math.IsNaN(RegIncBeta(-1, 3, 0.5)) {
		t.Error("negative a should give NaN")
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 1))
		if x == 0 || x >= 0.999 {
			return true
		}
		return RegIncBeta(2.5, 4, x) <= RegIncBeta(2.5, 4, x+0.001)+1e-14
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// brute force binomial tail for cross-validation
func bruteTailGE(n, k int, p float64) float64 {
	var s KahanSum
	for i := k; i <= n; i++ {
		s.Add(BinomPMF(n, i, p))
	}
	return s.Sum()
}

func TestBinomTailGEAgainstBrute(t *testing.T) {
	cases := []struct {
		n, k int
		p    float64
	}{
		{10, 3, 0.5}, {10, 0, 0.5}, {10, 10, 0.5}, {50, 25, 0.3},
		{100, 10, 0.05}, {100, 90, 0.95}, {7, 4, 0.1}, {200, 60, 0.31},
	}
	for _, c := range cases {
		got := BinomTailGE(c.n, c.k, c.p)
		want := bruteTailGE(c.n, c.k, c.p)
		if !almostEq(got, want, 1e-9) {
			t.Errorf("BinomTailGE(%d,%d,%g) = %g, want %g", c.n, c.k, c.p, got, want)
		}
	}
}

// perTermTailGE is BinomTailGE's exact sum for n > 200,000 as it was
// first written, one LogBinomPMF call per term: the oracle for the
// hoisted loop.
func perTermTailGE(n, k int, p float64) float64 {
	var s KahanSum
	for i := 0; i < k; i++ {
		s.Add(math.Exp(LogBinomPMF(n, i, p)))
	}
	return clamp01(1 - s.Sum())
}

// TestBinomTailHoistedSumBitIdentical: over a seeded grid of n > 200,000
// in both summed regimes (mean ≤ 10,000 and n − mean ≤ 10,000), and k
// from 1 to past the support cut-off, BinomTailGE returns exactly the bits
// of the per-term sum. The figures rest on this: a hoist that moved one
// rounding would move experiments_output.txt.
func TestBinomTailHoistedSumBitIdentical(t *testing.T) {
	r := rng.New(0xb1)
	check := func(n, k int, p float64) {
		t.Helper()
		mean, sd := float64(n)*p, math.Sqrt(float64(n)*p*(1-p))
		want := perTermTailGE(n, k, p)
		if k > int(mean+40*sd+40) {
			want = 0
		}
		if got := BinomTailGE(n, k, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BinomTailGE(%d, %d, %v) = %v, per-term sum %v", n, k, p, got, want)
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 200_001 + r.Intn(20_000_000)
		mean := 0.5 + 9_999*r.Float64()
		p := mean / float64(n)
		hi := int(mean + 40*math.Sqrt(mean) + 40)
		check(n, 1, p)
		check(n, 1+r.Intn(hi+50), p)
	}
	for trial := 0; trial < 4; trial++ {
		n := 200_001 + r.Intn(300_000)
		p := 1 - (0.5+9_999*r.Float64())/float64(n)
		check(n, n-r.Intn(20_000), p)
	}
}

func TestBinomTailEdges(t *testing.T) {
	if BinomTailGE(10, 0, 0.5) != 1 {
		t.Error("P(X>=0) must be 1")
	}
	if BinomTailGE(10, 11, 0.5) != 0 {
		t.Error("P(X>=n+1) must be 0")
	}
	if BinomTailGE(10, 5, 0) != 0 {
		t.Error("p=0 with k>0 must be 0")
	}
	if BinomTailGE(10, 5, 1) != 1 {
		t.Error("p=1 with k<=n must be 1")
	}
}

func TestBinomTailLargeN(t *testing.T) {
	// For large n with small p the tail must match the Poisson limit.
	n := 100_000_000
	p := 5e-8 // mean 5
	got := BinomTailGE(n, 1, p)
	want := 1 - math.Exp(-5) // Poisson P(X>=1)
	if !almostEq(got, want, 1e-4) {
		t.Errorf("large-n tail = %g, want ~%g", got, want)
	}
	got = BinomTailGE(n, 10, p)
	// Poisson P(X>=10), mean 5
	var s float64
	term := math.Exp(-5.0)
	for i := 0; i < 10; i++ {
		s += term
		term *= 5.0 / float64(i+1)
	}
	want = 1 - s
	if !almostEq(got, want, 1e-3) {
		t.Errorf("large-n tail k=10 = %g, want ~%g", got, want)
	}
}

func TestLogBinomPMFDegenerate(t *testing.T) {
	if LogBinomPMF(5, 0, 0) != 0 {
		t.Error("P(X=0|p=0) must be 1 (log 0)")
	}
	if !math.IsInf(LogBinomPMF(5, 1, 0), -1) {
		t.Error("P(X=1|p=0) must be 0")
	}
	if LogBinomPMF(5, 5, 1) != 0 {
		t.Error("P(X=n|p=1) must be 1")
	}
}

func TestBrentRoot(t *testing.T) {
	// root of cos(x) - x near 0.739085
	root, err := Brent(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(root, 0.7390851332151607, 1e-9) {
		t.Errorf("root = %.12f", root)
	}
	// exact at endpoint
	root, err = Brent(func(x float64) float64 { return x - 2 }, 2, 5, 1e-12)
	if err != nil || root != 2 {
		t.Errorf("endpoint root: %v %v", root, err)
	}
	// not bracketed
	if _, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12); err != ErrBracket {
		t.Errorf("expected ErrBracket, got %v", err)
	}
}

func TestMinIntSearch(t *testing.T) {
	got := MinIntSearch(0, 100, func(n int) bool { return n >= 37 })
	if got != 37 {
		t.Errorf("MinIntSearch = %d, want 37", got)
	}
	got = MinIntSearch(0, 100, func(n int) bool { return false })
	if got != 101 {
		t.Errorf("MinIntSearch all-false = %d, want 101", got)
	}
	got = MinIntSearch(5, 5, func(n int) bool { return true })
	if got != 5 {
		t.Errorf("MinIntSearch singleton = %d, want 5", got)
	}
}

func TestKahanSum(t *testing.T) {
	var s KahanSum
	// adding 1e-10 ten billion times should be ~1.0 with compensation
	for i := 0; i < 1_000_000; i++ {
		s.Add(1e-6)
	}
	if !almostEq(s.Sum(), 1, 1e-9) {
		t.Errorf("compensated sum = %.15f, want 1", s.Sum())
	}
	// mixed magnitudes
	var m KahanSum
	m.Add(1e16)
	m.Add(1)
	m.Add(-1e16)
	if m.Sum() != 1 {
		t.Errorf("mixed-magnitude sum = %g, want 1", m.Sum())
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(v) != 5 {
		t.Fatalf("len = %d", len(v))
	}
	for i := range v {
		if !almostEq(v[i], want[i], 1e-12) {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("degenerate linspace = %v", got)
	}
}

func TestClamp01(t *testing.T) {
	if Clamp01(-0.5) != 0 || Clamp01(1.5) != 1 || Clamp01(0.3) != 0.3 {
		t.Error("Clamp01 misbehaves")
	}
}

func TestBinomTailBranchConsistency(t *testing.T) {
	// The exact (incomplete beta), normal, and Poisson-summation branches
	// must agree near their hand-off boundaries.
	// exact vs normal: same p, proportional k, n straddling 200k.
	p := 0.117
	frac := 0.10
	nExact, nNormal := 199_000, 201_000
	vExact := BinomTailGE(nExact, int(frac*float64(nExact)), p)
	vNormal := BinomTailGE(nNormal, int(frac*float64(nNormal)), p)
	// both are essentially 1 here (mean 11.7% >> 10%); they must agree to
	// within normal-approximation error.
	if math.Abs(vExact-vNormal) > 5e-3 {
		t.Errorf("branch mismatch at boundary: exact %g vs normal %g", vExact, vNormal)
	}
	// a mid-probability point where the value is not saturated
	kMid := func(n int) int { return int(0.117*float64(n)) + 20 }
	vE := BinomTailGE(nExact, kMid(nExact), p)
	vN := BinomTailGE(nNormal, kMid(nNormal), p)
	if vE < 1e-6 || vE > 1-1e-6 {
		t.Logf("note: midpoint saturated (%g); boundary check weaker", vE)
	}
	if math.Abs(vE-vN) > 2e-2 {
		t.Errorf("mid-tail branch mismatch: %g vs %g", vE, vN)
	}
	// Poisson-summation branch vs exact Poisson at huge n / small mean
	n := 5_000_000
	pTiny := 2.0 / float64(n) // mean 2
	got := BinomTailGE(n, 3, pTiny)
	// Poisson(2): P(X>=3) = 1 - e^-2(1 + 2 + 2)
	want := 1 - math.Exp(-2)*(1+2+2)
	if math.Abs(got-want) > 1e-4 {
		t.Errorf("Poisson-regime tail %g vs %g", got, want)
	}
}
