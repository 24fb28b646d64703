package weibull

import (
	"math"
	"runtime"

	"lemonade/internal/rng"
)

// Survival-table sizing and guard (DESIGN.md §12 derives the band).
const (
	// tableCap bounds the table, its sentinel included: a Dist whose
	// thresholds run past it (large α) samples every draw exactly.
	tableCap = 256
	// guideBuckets splits (0, 1) into equal buckets of u, each mapped to
	// the last entry at or above its upper edge, where the scan for a
	// draw in it starts.
	guideBuckets = 256
	// guardDelta is the relative guard band around every threshold:
	// inside it the float pipeline may floor to the other side, so the
	// draw takes the exact path.
	guardDelta = 1e-8
	// guardUlps bounds the float pipeline's and the tabulated value's
	// error around a threshold t together, in ulps per unit of
	// (β+1)·(|ln t|+1); a table whose largest |ln t| would carry that
	// error past guardDelta is not built.
	guardUlps = 256
	// minDraw is the smallest value rng.Float64Open returns.
	minDraw = 0x1p-53
)

// SurvivalTable samples floored lifetimes, SampleCycles, by a discrete
// inverse transform. A switch completes at least m actuations iff its
// uniform draw u satisfies u ≤ t[m] = R(m) = exp(−(m/α)^β), so its floored
// lifetime is the largest m with u ≤ t[m]: a guide index over u plus a
// short scan find it with no Log, Exp or Pow. Within a relative guard
// band of a threshold the float pipeline's rounding could floor to the
// other side, so there the table hands the same u to the exact path;
// outside every band the two agree. A draw consumes the RNG exactly as
// SampleCycles does, so a table and its Dist yield identical lifetimes
// from equal RNG states.
//
// A table is a fixed-size value, built once per batch of draws and kept
// on the stack. A Dist whose table would outgrow tableCap, whose shape
// β < 2 lies outside the derived bound, or whose thresholds reach past
// the band's coverage gets an empty table that samples every draw
// exactly.
type SurvivalTable struct {
	d     Dist
	n     int // entries in t, the sentinel below minDraw included; 0 = no table
	t     [tableCap]float64
	guide [guideBuckets]uint8 // guide[j] is an m with t[m] ≥ (j+1)/guideBuckets
}

// NewSurvivalTable tabulates d's survival function at every whole cycle
// count until it drops below the smallest draw.
func NewSurvivalTable(d Dist) SurvivalTable {
	tab := SurvivalTable{d: d}
	// s390x computes Log, Exp and Pow in assembly whose error the bound
	// does not cover.
	if !(d.Beta >= 2) || runtime.GOARCH == "s390x" {
		return tab
	}
	for m := 0; m < tableCap; m++ {
		logR := math.Pow(float64(m)/d.Alpha, d.Beta)
		tab.t[m] = math.Exp(-logR)
		if tab.t[m] < minDraw {
			if guardUlps*(d.Beta+1)*(logR+1)*0x1p-52 > guardDelta {
				return SurvivalTable{d: d}
			}
			tab.n = m + 1
			break
		}
	}
	if tab.n == 0 {
		return SurvivalTable{d: d}
	}
	m := 0
	for j := guideBuckets - 1; j >= 0; j-- {
		bound := float64(j+1) / guideBuckets
		for tab.t[m+1] >= bound {
			m++
		}
		tab.guide[j] = uint8(m)
	}
	return tab
}

// SampleCycles draws one floored lifetime: Dist.SampleCycles, bit for
// bit, from the same single uniform draw.
func (t *SurvivalTable) SampleCycles(r *rng.RNG) uint64 {
	u := r.Float64Open()
	if m, ok := t.lookup(u); ok {
		return m
	}
	return t.d.cycles(u)
}

// lookup returns the tabulated floored lifetime for u ∈ [minDraw, 1), or
// false when there is no table or u lies in a threshold's guard band.
func (t *SurvivalTable) lookup(u float64) (uint64, bool) {
	if t.n == 0 {
		return 0, false
	}
	m := int(t.guide[int(u*guideBuckets)])
	for t.t[m+1] >= u {
		m++
	}
	if u >= t.t[m]*(1-guardDelta) || u <= t.t[m+1]*(1+guardDelta) {
		return 0, false
	}
	return uint64(m), true
}
