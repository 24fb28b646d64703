// Package structure implements the wearout structures of Fig 2 of the
// paper as both analytic reliability models and executable simulations:
//
//   - a single NEMS switch (Fig 2a building block),
//   - n switches in series (Fig 2b, Eq 5) — rejected by the paper; only its
//     device blowup is kept, so the rejection is reproducible,
//   - n switches in parallel, 1-out-of-n (Fig 2c, Eq 6),
//   - k-out-of-n parallel with redundant encoding (Fig 2d, Eq 8).
//
// Each analytic model answers "with what probability does the structure
// still work at access x?" for devices drawn i.i.d. from a Weibull
// distribution. Each executable structure owns real simulated switches and
// is actuated access by access. The test suite cross-validates the two.
package structure

import (
	"fmt"
	"math"

	"lemonade/internal/mathx"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// --- Analytic models -------------------------------------------------------------

// SeriesDevicesForAlphaScale returns how many series devices are needed to
// scale the effective α down by factor y: n = y^β — the exponential blowup
// that makes the paper discard the series option.
func SeriesDevicesForAlphaScale(d weibull.Dist, y float64) float64 {
	return math.Pow(y, d.Beta)
}

// ParallelReliability returns the probability that at least k of n i.i.d.
// devices survive access x. For k = 1 this is Eq 6; for general k it is
// Eq 8, computed with exact binomial tails (regularized incomplete beta) so
// it stays accurate for n up to ~1e9.
func ParallelReliability(d weibull.Dist, n, k int, x float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	logr := d.LogReliability(x)
	if k == 1 {
		// 1 - (1-r)^n, stable when r is tiny: use log1p chains.
		// (1-r)^n = exp(n*log(1-r)); log(1-r) = log1p(-exp(logr)).
		r := math.Exp(logr)
		if r >= 1 {
			return 1
		}
		log1mr := math.Log1p(-r)
		return -math.Expm1(float64(n) * log1mr)
	}
	r := math.Exp(logr)
	return mathx.BinomTailGE(n, k, r)
}

// --- Executable structures ---------------------------------------------------------

// Structure is a wearout structure that can be accessed until it wears out.
type Structure interface {
	// Access actuates the structure once and reports whether the access
	// succeeded (the structure still conducts / yields enough components).
	Access(env nems.Environment) bool
	// Alive reports whether a future access could still succeed.
	Alive() bool
	// Devices returns the total number of NEMS switches in the structure.
	Devices() int
}

// Parallel is a k-out-of-n parallel structure (Fig 2c with k=1, Fig 2d
// with k>1 plus encoding). An access actuates all surviving switches; it
// succeeds iff at least k of them conduct.
type Parallel struct {
	switches []*nems.Switch
	k        int
}

// NewParallel fabricates an n-device parallel structure requiring k
// survivors per access. k must satisfy 1 <= k <= n.
func NewParallel(d weibull.Dist, n, k int, r *rng.RNG) (*Parallel, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("structure: k=%d out of range [1, %d]", k, n)
	}
	p := &Parallel{switches: make([]*nems.Switch, n), k: k}
	for i := range p.switches {
		p.switches[i] = nems.Fabricate(d, r)
	}
	return p, nil
}

// Access implements Structure. It returns true iff at least k switches
// conducted during this access.
func (p *Parallel) Access(env nems.Environment) bool {
	return len(p.AccessSurvivors(env)) >= p.k
}

// AccessSurvivors actuates every still-working switch and returns the
// indices of those that conducted — the component-key positions the
// decoder can read this access (used by the encoded architectures).
func (p *Parallel) AccessSurvivors(env nems.Environment) []int {
	var ok []int
	for i, sw := range p.switches {
		if sw.Actuate(env) == nil {
			ok = append(ok, i)
		}
	}
	return ok
}

// Alive implements Structure: a future access can succeed iff at least k
// switches are still working.
func (p *Parallel) Alive() bool {
	working := 0
	for _, sw := range p.switches {
		if sw.Working() {
			working++
			if working >= p.k {
				return true
			}
		}
	}
	return false
}

// Devices implements Structure.
func (p *Parallel) Devices() int { return len(p.switches) }

// SerialCopies is the paper's "N copies" composition (§4.1.1): N identical
// structures used one after another. Accesses are routed to the first
// still-alive copy; when a copy wears out the next one takes over. The
// system is dead when every copy is dead.
type SerialCopies struct {
	copies  []Structure
	current int
}

// NewSerialCopies wraps pre-built copies.
func NewSerialCopies(copies []Structure) *SerialCopies {
	return &SerialCopies{copies: copies}
}

// Access routes one access to the active copy. If the active copy fails the
// access, the access itself fails (the user retries, landing on the next
// copy) — this conservative semantics matches the paper's serial use with
// per-copy passwords.
func (s *SerialCopies) Access(env nems.Environment) bool {
	for s.current < len(s.copies) {
		c := s.copies[s.current]
		if !c.Alive() {
			s.current++
			continue
		}
		return c.Access(env)
	}
	return false
}

// Alive implements Structure.
func (s *SerialCopies) Alive() bool {
	for i := s.current; i < len(s.copies); i++ {
		if s.copies[i].Alive() {
			return true
		}
	}
	return false
}

// Devices implements Structure.
func (s *SerialCopies) Devices() int {
	total := 0
	for _, c := range s.copies {
		total += c.Devices()
	}
	return total
}

// CurrentCopy returns the index of the copy accesses are routed to.
func (s *SerialCopies) CurrentCopy() int { return s.current }

// CountSuccessfulAccesses drives a structure to death under env and returns
// how many accesses succeeded — the empirical access bound of one trial.
func CountSuccessfulAccesses(st Structure, env nems.Environment, max int) int {
	succ := 0
	for i := 0; i < max && st.Alive(); i++ {
		if st.Access(env) {
			succ++
		}
	}
	return succ
}
