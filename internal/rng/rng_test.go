package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	v := r.Uint64()
	if v == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced degenerate stream")
	}
}

func TestDeriveStableAndIndependent(t *testing.T) {
	root := New(7)
	a1 := root.Derive("weibull")
	a2 := root.Derive("weibull")
	b := root.Derive("attack")
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatal("same-label derivation not reproducible")
		}
	}
	a3 := root.Derive("weibull")
	diff := false
	for i := 0; i < 100; i++ {
		if a3.Uint64() != b.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different labels produced identical streams")
	}
}

func TestSplitAdvancesParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("Split should advance the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		if r.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for i, c := range counts {
		expected := float64(n) / buckets
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d deviates too far from %g", i, c, expected)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(3); v < 0 || v > 2 {
			t.Fatalf("Intn(3) = %d", v)
		}
	}
	if v := r.Intn(1); v != 0 {
		t.Errorf("Intn(1) = %d, want 0", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(23)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(math.Log(10), 0.5)
	}
	// crude median via counting below 10
	below := 0
	for _, v := range vals {
		if v < 10 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lognormal median fraction below exp(mu) = %g, want ~0.5", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBytesFills(t *testing.T) {
	r := New(37)
	for _, n := range []int{0, 1, 7, 8, 9, 31, 64} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 16 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Errorf("Bytes(%d) produced all zeros", n)
			}
		}
	}
}

func TestBernoulli(t *testing.T) {
	r := New(41)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %g", frac)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) fired")
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(61)
	for _, lambda := range []float64{0.5, 5, 50, 1200} {
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/n)+0.05 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.15*lambda+0.3 {
			t.Errorf("Poisson(%g) variance = %g", lambda, variance)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
	if New(1).Poisson(-1) != 0 {
		t.Error("negative lambda should be 0")
	}
}
