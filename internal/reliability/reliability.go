// Package reliability provides the system-level degradation-window
// machinery of §4.1/§4.3: the fast-degradation criteria a wearout structure
// must meet, per-structure access-count distributions, and the composition
// of N serially-used copies into system-level usage bounds.
//
// Access convention: "the structure works for access t" has probability
// equal to the structure reliability evaluated at continuous time x = t
// (the convention of Eq 6/Fig 3b). WorksThrough(t) is monotone
// non-increasing in t, so per-structure access counts have the proper PMF
// P(T = t) = WorksThrough(t) − WorksThrough(t+1).
package reliability

import (
	"fmt"
	"math"

	"lemonade/internal/mathx"
	"lemonade/internal/structure"
	"lemonade/internal/weibull"
)

// Criteria is the fast-degradation criterion of §4.3.3: a structure must
// work through its target access count with probability at least MinWork,
// and must survive past its allowed maximum with probability at most
// MaxOverrun.
type Criteria struct {
	// MinWork is the required probability that the structure works for all
	// of its target accesses (paper default 0.99).
	MinWork float64
	// MaxOverrun is the maximum allowed probability that the structure
	// still works one access past its upper bound (paper default 0.01;
	// relaxed to up to 0.10 in Fig 4c).
	MaxOverrun float64
}

// DefaultCriteria is the 99%/1% criterion used for most of the paper's
// experiments.
var DefaultCriteria = Criteria{MinWork: 0.99, MaxOverrun: 0.01}

// Validate reports whether the criteria are proper probabilities.
func (c Criteria) Validate() error {
	if !(c.MinWork > 0 && c.MinWork < 1) {
		return fmt.Errorf("reliability: MinWork must be in (0,1), got %v", c.MinWork)
	}
	if !(c.MaxOverrun > 0 && c.MaxOverrun < 1) {
		return fmt.Errorf("reliability: MaxOverrun must be in (0,1), got %v", c.MaxOverrun)
	}
	if c.MinWork <= c.MaxOverrun {
		return fmt.Errorf("reliability: MinWork (%v) must exceed MaxOverrun (%v)", c.MinWork, c.MaxOverrun)
	}
	return nil
}

// Model is the analytic reliability model of one k-out-of-n parallel
// structure built from i.i.d. devices.
type Model struct {
	Dist weibull.Dist
	N    int // devices in the parallel structure
	K    int // survivors required per access (1 = no encoding)
}

// WorksThrough returns the probability that accesses 1..t all succeed.
func (m Model) WorksThrough(t int) float64 {
	if t <= 0 {
		return 1
	}
	return structure.ParallelReliability(m.Dist, m.N, m.K, float64(t))
}

// AccessPMF returns the distribution of the structure's successful access
// count T: pmf[t] = P(T = t) for t = 0..len(pmf)-1, truncated where the
// survival probability drops below 1e-15.
func (m Model) AccessPMF() []float64 {
	var pmf []float64
	prev := 1.0
	for t := 1; ; t++ {
		cur := m.WorksThrough(t)
		pmf = append(pmf, prev-cur)
		prev = cur
		if cur < 1e-15 {
			break
		}
		if t > int(8*m.Dist.Alpha)+64 { // safety: never loop unboundedly
			pmf = append(pmf, cur)
			break
		}
	}
	// pmf[i] currently holds P(T = i+1)? No: first append is P(T=0)=1-W(1).
	return pmf
}

// AccessMoments returns the mean and variance of the structure's successful
// access count.
func (m Model) AccessMoments() (mean, variance float64) {
	pmf := m.AccessPMF()
	var mu, m2 mathx.KahanSum
	for t, p := range pmf {
		mu.Add(p * float64(t))
		m2.Add(p * float64(t) * float64(t))
	}
	mean = mu.Sum()
	variance = m2.Sum() - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// --- System composition ---------------------------------------------------------

// System composes N identical structures used serially (§4.1.1) into
// system-level usage bounds.
type System struct {
	Copy   Model
	Copies int
}

// ExpectedTotalAccesses returns the expected system-level access count
// (sum of the copies' access counts) and its standard deviation — the
// "empirical access bounds" of Fig 4c.
func (s System) ExpectedTotalAccesses() (mean, sd float64) {
	m, v := s.Copy.AccessMoments()
	return m * float64(s.Copies), math.Sqrt(v * float64(s.Copies))
}

// UpperBoundQuantile returns an approximate q-quantile (e.g. 0.99) of the
// total system access count via the normal approximation — sensible since
// Copies is in the thousands for the connection use case.
func (s System) UpperBoundQuantile(q float64) float64 {
	mean, sd := s.ExpectedTotalAccesses()
	return mean + sd*normQuantile(q)
}

// normQuantile is the standard normal quantile (Acklam's rational
// approximation, |relative error| < 1.15e-9).
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
