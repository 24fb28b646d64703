package core

import (
	"lemonade/internal/mathx"
	"lemonade/internal/reliability"
)

// Health is a self-assessment of a limited-use architecture: how much
// usage remains before the secret becomes unreachable. It powers
// migrate-before-death planning (§4.1.5) — the user wants to re-encrypt
// onto the next module *before* the current one dies, not after.
type Health struct {
	// FreshCopies is the number of untouched copies behind the active one.
	FreshCopies int
	// ActiveCopyWorking is the number of conducting switches in the
	// active copy (k of them are needed per access).
	ActiveCopyWorking int
	// ActiveCopyAccesses is how many accesses the active copy has served.
	ActiveCopyAccesses int
	// EstRemainingAccesses is the analytic expectation of remaining
	// successful accesses across the active and fresh copies.
	EstRemainingAccesses float64
	// MigrateAdvised is set when the active copy has consumed most of its
	// expected life — the §4.1.5 moment to change passcodes.
	MigrateAdvised bool
}

// Health reports the architecture's remaining capacity. The estimate uses
// the design's analytic access-count distribution: the active copy
// contributes its conditional expected remaining accesses given that it
// has already served its count; each fresh copy contributes the full
// per-copy mean.
func (a *Architecture) Health() Health {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := Health{}
	if a.cur >= len(a.copies) {
		return h
	}
	h.FreshCopies = len(a.copies) - a.cur - 1
	active := a.copies[a.cur]
	for i := range active.switches {
		if active.switches[i].Working() {
			h.ActiveCopyWorking++
		}
	}
	// The active copy's served count: every copy before cur is exhausted;
	// attribute the remainder of successful accesses to the active copy.
	// (Switch actuation counts give the exact number.)
	if len(active.switches) > 0 {
		h.ActiveCopyAccesses = int(active.switches[0].Actuations())
	}

	m := reliability.Model{Dist: a.design.Spec.Dist, N: a.design.N, K: a.design.K}
	perCopyMean, _ := m.AccessMoments()
	h.EstRemainingAccesses = condRemaining(m, h.ActiveCopyAccesses) + float64(h.FreshCopies)*perCopyMean
	// advise migration when under 20% of the copy's expected life remains
	h.MigrateAdvised = condRemaining(m, h.ActiveCopyAccesses) < 0.2*perCopyMean && h.FreshCopies > 0
	return h
}

// condRemaining returns E[T − served | T ≥ served] for the copy's access
// count T, via the survival function: Σ_{t>served} P(T ≥ t)/P(T ≥ served).
func condRemaining(m reliability.Model, served int) float64 {
	base := m.WorksThrough(served)
	if base <= 0 {
		return 0
	}
	var sum mathx.KahanSum
	for t := served + 1; ; t++ {
		w := m.WorksThrough(t)
		if w < 1e-12*base {
			break
		}
		sum.Add(w)
		if t > served+int(8*m.Dist.Alpha)+64 {
			break
		}
	}
	return sum.Sum() / base
}
