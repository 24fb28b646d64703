// Package weibull implements the two-parameter Weibull wearout model of
// §2.2 of the paper (Eqs 1–3): the probability density, cumulative
// distribution and reliability functions of the time-to-failure of a NEMS
// contact switch, together with quantiles, moments, random sampling, and
// maximum-likelihood fitting from (possibly right-censored) lifetime data.
//
// Time is measured in actuation cycles throughout, matching the paper:
// "time to failure" of a NEMS switch is the number of open/close cycles it
// survives.
package weibull

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"lemonade/internal/mathx"
	"lemonade/internal/rng"
)

// Dist is a two-parameter Weibull distribution with scale alpha (cycles)
// and shape beta (dimensionless). Alpha approximates the mean time to
// failure; beta controls the consistency of wearout across devices —
// larger beta means a sharper failure peak (paper Fig 1).
type Dist struct {
	Alpha float64 // scale parameter α > 0, in cycles
	Beta  float64 // shape parameter β > 0
}

// New returns the distribution after validating the parameters.
func New(alpha, beta float64) (Dist, error) {
	d := Dist{Alpha: alpha, Beta: beta}
	if err := d.Validate(); err != nil {
		return Dist{}, err
	}
	return d, nil
}

// MustNew is New but panics on invalid parameters; for literals in tests
// and experiment tables.
func MustNew(alpha, beta float64) Dist {
	d, err := New(alpha, beta)
	if err != nil {
		panic(err) //lemonvet:allow panic Must-prefix constructor; documented to panic on invalid literals
	}
	return d
}

// Validate reports whether the parameters define a proper distribution.
func (d Dist) Validate() error {
	if !(d.Alpha > 0) || math.IsInf(d.Alpha, 0) || math.IsNaN(d.Alpha) {
		return fmt.Errorf("weibull: scale alpha must be positive and finite, got %v", d.Alpha)
	}
	if !(d.Beta > 0) || math.IsInf(d.Beta, 0) || math.IsNaN(d.Beta) {
		return fmt.Errorf("weibull: shape beta must be positive and finite, got %v", d.Beta)
	}
	return nil
}

// String implements fmt.Stringer.
func (d Dist) String() string {
	return fmt.Sprintf("Weibull(α=%g, β=%g)", d.Alpha, d.Beta)
}

// PDF returns the failure probability density f(x) of Eq 1.
func (d Dist) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case d.Beta < 1:
			return math.Inf(1)
		case d.Beta == 1:
			return 1 / d.Alpha
		default:
			return 0
		}
	}
	z := x / d.Alpha
	return d.Beta / d.Alpha * math.Pow(z, d.Beta-1) * math.Exp(-math.Pow(z, d.Beta))
}

// CDF returns the failure probability F(x) of Eq 2, i.e. the probability the
// device has failed by time x.
func (d Dist) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/d.Alpha, d.Beta))
}

// Reliability returns R(x) = 1 - F(x) of Eq 3: the probability the device
// still works at time x. Computed directly from the exponential form so it
// stays accurate deep into the tail.
func (d Dist) Reliability(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(x/d.Alpha, d.Beta))
}

// LogReliability returns ln R(x) = -(x/α)^β without underflow.
func (d Dist) LogReliability(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Pow(x/d.Alpha, d.Beta)
}

// Quantile returns the time x by which the failure probability reaches p,
// i.e. F(x) = p. It returns 0 for p <= 0 and +Inf for p >= 1.
func (d Dist) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return d.Alpha * math.Pow(-math.Log1p(-p), 1/d.Beta)
}

// Mean returns E[X] = α·Γ(1 + 1/β).
func (d Dist) Mean() float64 {
	return d.Alpha * math.Gamma(1+1/d.Beta)
}

// Sample draws one time-to-failure by inverse-CDF sampling.
func (d Dist) Sample(r *rng.RNG) float64 {
	return d.inverse(r.Float64Open())
}

// inverse is the inverse-CDF transform of one uniform draw u in (0, 1).
func (d Dist) inverse(u float64) float64 {
	return d.Alpha * pow(-math.Log(u), 1/d.Beta)
}

// pow returns math.Pow(x, y) bit for bit, taking math.Pow's own branch
// directly when 0 < y < 0.5 and x is positive and finite: there the
// pure-Go Pow splits y into an integer part 0 and a fraction y, and
// returns Ldexp(Exp(y·Log(x)), 0), which is Exp(y·Log(x)) itself (y·Log(x)
// lies between −373 and 355, so the result is a normal float and Ldexp by
// 0 is the identity). The general path's Modf, Frexp and squaring loop
// are a third of a lifetime draw; 1/β for every β > 2 lands here. s390x
// has an assembly Pow with its own rounding, so it always falls back.
func pow(x, y float64) float64 {
	if runtime.GOARCH != "s390x" && y > 0 && y < 0.5 && x > 0 && x <= math.MaxFloat64 {
		return math.Exp(y * math.Log(x))
	}
	return math.Pow(x, y)
}

// SampleCycles draws a lifetime and floors it to the whole number of
// actuations the device will complete successfully. A device with
// continuous lifetime X conducts its t-th actuation iff floor(X) >= t, i.e.
// with probability exactly R(t) — so the discrete simulator and the
// continuous analytic models (Eqs 3, 6, 8) agree without an off-by-one.
// A draw below one cycle yields a device that fails on its first actuation
// (infant mortality).
func (d Dist) SampleCycles(r *rng.RNG) uint64 {
	return d.cycles(r.Float64Open())
}

// cycles is SampleCycles for the uniform draw u: the one definition of a
// floored lifetime, shared by the exact path and SurvivalTable's guard
// band.
func (d Dist) cycles(u float64) uint64 {
	c := math.Floor(d.inverse(u))
	if c < 0 {
		return 0
	}
	if c > math.MaxUint64/2 {
		return math.MaxUint64 / 2
	}
	return uint64(c)
}

// DegradationWindow returns [t1, t2] such that R(t1) = hi and R(t2) = lo
// (hi > lo), i.e. the span over which reliability collapses from hi to lo.
// Fig 3a of the paper studies exactly this window.
func (d Dist) DegradationWindow(hi, lo float64) (t1, t2 float64) {
	return d.Quantile(1 - hi), d.Quantile(1 - lo)
}

// --- Fitting -----------------------------------------------------------------

// ErrInsufficientData is returned when fewer than two uncensored
// observations are available.
var ErrInsufficientData = errors.New("weibull: need at least two uncensored failures to fit")

// Obs is one lifetime observation. If Censored is true the device was still
// alive at Time (right censoring) — common when a wearout experiment stops
// before every device has failed.
type Obs struct {
	Time     float64
	Censored bool
}

// Fit estimates (alpha, beta) by maximum likelihood from the observations,
// supporting right censoring. The profile-likelihood equation in beta is
// solved by bisection; alpha follows in closed form.
func Fit(obs []Obs) (Dist, error) {
	var failures int
	for _, o := range obs {
		if o.Time <= 0 {
			return Dist{}, fmt.Errorf("weibull: non-positive observation time %g", o.Time)
		}
		if !o.Censored {
			failures++
		}
	}
	if failures < 2 {
		return Dist{}, ErrInsufficientData
	}

	// Profile likelihood: for X_i all observations (failures D, censored C),
	// g(β) = Σ_all t^β ln t / Σ_all t^β − 1/β − (1/|D|) Σ_D ln t = 0.
	g := func(beta float64) float64 {
		var num, den mathx.KahanSum
		var sumLogFail mathx.KahanSum
		for _, o := range obs {
			tb := math.Pow(o.Time, beta)
			lt := math.Log(o.Time)
			num.Add(tb * lt)
			den.Add(tb)
			if !o.Censored {
				sumLogFail.Add(lt)
			}
		}
		return num.Sum()/den.Sum() - 1/beta - sumLogFail.Sum()/float64(failures)
	}

	// Bracket the root. g is increasing in beta for Weibull data; scan
	// outward from a broad default range.
	lo, hi := 1e-3, 1.0
	for g(hi) < 0 && hi < 1e5 {
		hi *= 2
	}
	if g(hi) < 0 {
		return Dist{}, mathx.ErrNoConvergence
	}
	for g(lo) > 0 && lo > 1e-9 {
		lo /= 2
	}
	beta, err := mathx.Brent(g, lo, hi, 1e-10)
	if err != nil {
		return Dist{}, err
	}

	var den mathx.KahanSum
	for _, o := range obs {
		den.Add(math.Pow(o.Time, beta))
	}
	alpha := math.Pow(den.Sum()/float64(failures), 1/beta)
	return New(alpha, beta)
}

// --- Process variation --------------------------------------------------------

// Variation models manufacturing/process variation across individual devices
// (§2.2): each fabricated device gets its own effective (α, β) drawn around
// the nominal distribution. CVAlpha/CVBeta are coefficients of variation of
// log-normal perturbations; zero disables that component.
type Variation struct {
	Nominal Dist
	CVAlpha float64 // coefficient of variation of per-device alpha
	CVBeta  float64 // coefficient of variation of per-device beta
}

// Draw samples the effective distribution of one manufactured device.
func (v Variation) Draw(r *rng.RNG) Dist {
	d := v.Nominal
	if v.CVAlpha > 0 {
		sigma := math.Sqrt(math.Log(1 + v.CVAlpha*v.CVAlpha))
		d.Alpha *= r.LogNormal(-sigma*sigma/2, sigma)
	}
	if v.CVBeta > 0 {
		sigma := math.Sqrt(math.Log(1 + v.CVBeta*v.CVBeta))
		d.Beta *= r.LogNormal(-sigma*sigma/2, sigma)
	}
	if d.Alpha <= 0 {
		d.Alpha = math.SmallestNonzeroFloat64
	}
	if d.Beta <= 0 {
		d.Beta = math.SmallestNonzeroFloat64
	}
	return d
}
