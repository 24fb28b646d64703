// Package mathx provides the numerical substrate used throughout the
// lemonade library: special functions (log-gamma combinatorics, the
// regularized incomplete beta function), exact and log-space binomial tail
// probabilities, scalar root finding, monotone integer search, and
// compensated summation.
//
// Everything here is pure: no allocation-visible state, no globals, no
// randomness. The functions are tuned for the regimes the design-space
// exploration operates in — binomial tails with n up to ~1e9 computed in log
// space, and reliability values extremely close to 0 or 1.
package mathx

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned when an iterative algorithm exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("mathx: iteration did not converge")

// ErrBracket is returned by root finders when the supplied interval does not
// bracket a sign change.
var ErrBracket = errors.New("mathx: root is not bracketed")

// LogChoose returns ln C(n, k) using log-gamma. It is valid for 0 <= k <= n
// with n as large as float64 permits. For k outside [0, n] it returns -Inf
// (the coefficient is zero).
func LogChoose(n, k float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n { //lemonvet:allow floateq exact endpoints have exact coefficient ln C = 0
		return 0
	}
	return lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)
}

// lgamma is ln |Γ(x)|.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// --- Regularized incomplete beta function ---------------------------------

// RegIncBeta returns I_x(a, b), the regularized incomplete beta function,
// for a, b > 0 and x in [0, 1]. It underlies the exact binomial CDF:
//
//	P(X <= k) = I_{1-p}(n-k, k+1) for X ~ Binomial(n, p).
//
// The continued-fraction expansion (Lentz's algorithm) from Numerical Recipes
// is used, switching to the symmetry relation when x > (a+1)/(a+b+2) for
// fast convergence.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := logBeta(a, b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) - lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(b*math.Log1p(-x)+a*math.Log(x)-lbeta)*betaCF(b, a, 1-x)/b
}

func logBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	// The Lentz iteration needs O(sqrt(min(a,b)·x)) terms near the
	// distribution bulk; 4000 covers the n ≤ ~2e5 binomial calls routed
	// here (larger n uses the normal approximation in BinomTailGE).
	const (
		maxIter = 4000
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			return h
		}
	}
	// The CF essentially always converges within the budget for the argument
	// ranges we use; return the best estimate rather than poisoning callers.
	return h
}

// --- Binomial tails ---------------------------------------------------------

// BinomTailGE returns P(X >= k) for X ~ Binomial(n, p). Up to n = 2e5 it
// uses the exact regularized incomplete beta identity
// P(X >= k) = I_p(k, n-k+1); beyond that it switches to the normal
// approximation with continuity correction (absolute error < ~1e-3 there,
// and the distribution tails are resolved exactly by the z-score guards).
// Results are clamped to [0, 1].
func BinomTailGE(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	const exactLimit = 200_000
	if n <= exactLimit {
		return clamp01(RegIncBeta(float64(k), float64(n-k+1), p))
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	// Small-mean (Poisson-like) regime: the normal approximation is poor
	// and the PMF support is narrow — sum it exactly in log space.
	if mean <= 10_000 || float64(n)-mean <= 10_000 {
		hi := int(mean + 40*sd + 40)
		if k > hi {
			return 0
		}
		// Each term is LogBinomPMF(n, i, p) — here 0 ≤ i < n and
		// 0 < p < 1 — with the terms that do not depend on i computed
		// once: the same operations on the same operands in the same
		// order, so the sum is bit-identical to the per-term calls.
		nf, lgN := float64(n), lgamma(float64(n)+1)
		lp, lq := math.Log(p), math.Log1p(-p)
		var s KahanSum
		for i := 0; i < k; i++ {
			kf, lc := float64(i), 0.0
			if i > 0 {
				lc = lgN - lgamma(kf+1) - lgamma(nf-kf+1)
			}
			s.Add(math.Exp(lc + kf*lp + (nf-kf)*lq))
		}
		return clamp01(1 - s.Sum())
	}
	if sd == 0 {
		if float64(k) <= mean {
			return 1
		}
		return 0
	}
	z := (float64(k) - 0.5 - mean) / sd
	switch {
	case z < -12:
		return 1
	case z > 12:
		return 0
	}
	return clamp01(0.5 * math.Erfc(z/math.Sqrt2))
}

// LogBinomPMF returns ln P(X = k) for X ~ Binomial(n, p) in log space,
// valid for n up to ~1e15.
func LogBinomPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	nf, kf := float64(n), float64(k)
	return LogChoose(nf, kf) + kf*math.Log(p) + (nf-kf)*math.Log1p(-p)
}

// BinomPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomPMF(n, k int, p float64) float64 {
	return math.Exp(LogBinomPMF(n, k, p))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Clamp01 clamps v into [0, 1]. Exported for reuse by probability code.
func Clamp01(v float64) float64 { return clamp01(v) }

// --- Root finding -----------------------------------------------------------

// Brent finds a root of f in [a, b] using Brent's method. f(a) and f(b)
// must have opposite signs. tol is the absolute x tolerance.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrBracket
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < 200; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d = b - a
			e = d
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c { //lemonvet:allow floateq Brent's method branches on exact bracket collapse
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
	}
	return b, ErrNoConvergence
}

// --- Integer search ---------------------------------------------------------

// MinIntSearch finds the smallest integer n in [lo, hi] such that pred(n)
// is true, assuming pred is monotone (false...false true...true).
// It returns hi+1 if pred is false on the whole range.
func MinIntSearch(lo, hi int, pred func(int) bool) int {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo <= hi && pred(lo) {
		return lo
	}
	return hi + 1
}

// --- Compensated summation ---------------------------------------------------

// KahanSum accumulates float64 values with Kahan-Babuška compensation.
// The zero value is ready to use.
type KahanSum struct {
	sum, c float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	t := k.sum + v
	if math.Abs(k.sum) >= math.Abs(v) {
		k.c += (k.sum - t) + v
	} else {
		k.c += (v - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// Linspace returns n evenly spaced values from a to b inclusive (n >= 2).
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b
	return out
}
