// Package nems simulates NEMS (nanoelectromechanical) contact switches —
// the wearout devices of §2.1 of the paper — as stochastic state machines.
//
// A Switch is fabricated with a hidden lifetime drawn from a Weibull
// distribution (optionally perturbed by per-device process variation) and
// fails permanently once actuated that many times. The simulator also
// models the environmental insensitivity the paper relies on for security:
// operating temperature can accelerate wearout (melting at 500 °C for SiC)
// but can never extend a device's lifetime, and freezing leads to fracture
// rather than slower aging.
//
// Physical constants (actuation latency, switching energy, contact area)
// follow Loh & Espinosa (Nature Nanotech 2012), the source the paper cites:
// ~10 ns per actuation, ~1e-20 J per operation, ~100 nm² contact area.
package nems

import (
	"errors"
	"fmt"

	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// Physical constants used by the cost and latency models (paper §4.3, §6.5).
const (
	// ActuationLatencySeconds is the switching time of one NEMS contact
	// switch (~10 ns).
	ActuationLatencySeconds = 10e-9
	// ActuationEnergyJoules is the energy of one switching operation
	// (~1e-20 J).
	ActuationEnergyJoules = 1e-20
	// ContactAreaNm2 is the contact area of one switch in nm².
	ContactAreaNm2 = 100.0
	// PitchNm is the assumed distance between switches in a layout, nm.
	PitchNm = 1.0
)

// Environment describes operating conditions for an actuation. The paper's
// security argument (§2.1) is that NEMS wearout is insensitive to the
// environment in the attacker-favourable direction: heat and cold can only
// destroy devices faster.
type Environment struct {
	// TempCelsius is the operating temperature. Devices are specified at
	// 25 °C; extreme temperatures apply a wearout *acceleration* factor,
	// never a deceleration.
	TempCelsius float64
}

// RoomTemp is the nominal specification environment.
var RoomTemp = Environment{TempCelsius: 25}

// Acceleration returns the multiplicative factor applied to wear per
// actuation. Always >= 1: the paper's devices cannot be life-extended by
// environmental control. It is fixed for an environment, so a caller
// actuating many switches under one environment computes it once and
// fires them through ActuateBy.
func (e Environment) Acceleration() float64 {
	switch {
	case e.TempCelsius >= 400:
		// SiC switches suffer melting-type failures at 500 °C; the paper
		// cites ~10x fewer cycles (21e9 at 25 °C vs 2e9 at 500 °C).
		return 10
	case e.TempCelsius >= 150:
		return 2
	case e.TempCelsius <= -40:
		// Freezing causes fracture; model as mildly accelerated wear.
		return 2
	default:
		return 1
	}
}

// ErrFailed is returned by Actuate on a switch that has worn out.
var ErrFailed = errors.New("nems: switch has worn out")

// Switch is one simulated NEMS contact switch.
//
// The hidden lifetime is fixed at fabrication; Actuate consumes it. Wear is
// tracked in fractional cycles so environmental acceleration composes.
// A Switch is 24 bytes and holds no pointers, so a structure's switches
// live in one slab (see FabricateInto) that the garbage collector never
// scans. It keeps no separate failure cycle: a worn-out switch never
// counts another actuation, so the cycle it failed on is its final
// actuation count, and the top bit of actuated (failedBit) marks it.
type Switch struct {
	lifetime float64 // hidden: cycles until failure at 25 °C
	wear     float64 // accumulated (accelerated) cycles
	actuated uint64  // observable actuation count, | failedBit once worn out
}

// failedBit marks a worn-out switch in Switch.actuated. Actuations are
// bounded by the lifetime draw, far below 2⁶³, so the bit is never part
// of a count.
const failedBit = 1 << 63

// Fabricate draws a switch from the given lifetime distribution.
func Fabricate(d weibull.Dist, r *rng.RNG) *Switch {
	return &Switch{lifetime: float64(d.SampleCycles(r))}
}

// FabricateInto fabricates len(dst) switches in place, making the same
// draws in the same order as len(dst) calls to Fabricate — the
// destination-buffer form for structures that hold their switches in one
// slab. The lifetimes come from one weibull.SurvivalTable, built on the
// stack for the whole slab.
func FabricateInto(dst []Switch, d weibull.Dist, r *rng.RNG) {
	tab := weibull.NewSurvivalTable(d)
	for i := range dst {
		dst[i] = Switch{lifetime: float64(tab.SampleCycles(r))}
	}
}

// FabricateWithVariation draws a per-device effective distribution from the
// process-variation model, then a lifetime from it.
func FabricateWithVariation(v weibull.Variation, r *rng.RNG) *Switch {
	return Fabricate(v.Draw(r), r)
}

// FabricateDeterministic returns a switch that completes exactly
// lifetimeCycles successful actuations and fails on the next one — useful
// in tests and for ideal-device thought experiments (e.g. the paper's
// "wears out exactly after one access" forward-secrecy store, which is
// FabricateDeterministic(1)). Zero models an infant-mortality device that
// fails on its first actuation.
func FabricateDeterministic(lifetimeCycles uint64) *Switch {
	return &Switch{lifetime: float64(lifetimeCycles)}
}

// Actuate closes and reopens the switch once under the given environment.
// It returns ErrFailed if the switch has already worn out, or wears out
// during this actuation (the actuation that kills the switch does NOT
// conduct: the paper counts a device as working "for t accesses" if access
// t still succeeds).
func (s *Switch) Actuate(env Environment) error { return s.ActuateBy(env.Acceleration()) }

// ActuateBy is Actuate under an environment whose Acceleration is accel.
func (s *Switch) ActuateBy(accel float64) error {
	if s.actuated&failedBit != 0 {
		return ErrFailed
	}
	s.actuated++
	s.wear += accel
	if s.wear > s.lifetime {
		s.actuated |= failedBit
		return ErrFailed
	}
	return nil
}

// State is the mutable wear state of one switch, exported for durable
// checkpointing. The hidden lifetime is deliberately absent: a restore
// re-fabricates the switch from the original seed (which reproduces the
// identical lifetime) and then overlays this state, so the lifetime never
// leaves the simulated hardware — snapshots on disk reveal no more about
// remaining life than the adversary could learn by watching accesses.
type State struct {
	Wear      float64 `json:"wear"`
	Actuated  uint64  `json:"actuated"`
	FailCycle uint64  `json:"fail_cycle,omitempty"` // 0 = still working
}

// Reachable reports whether some actuation history leaves a switch in
// st: a failed switch failed on its last counted actuation, so FailCycle
// is 0 or equal to Actuated, and no count reaches failedBit. A switch
// holds nothing else, so RestoreState can only overlay reachable states
// exactly.
func (st State) Reachable() bool {
	return st.Actuated&failedBit == 0 && (st.FailCycle == 0 || st.FailCycle == st.Actuated)
}

// State captures the switch's mutable wear state.
func (s *Switch) State() State {
	return State{Wear: s.wear, Actuated: s.actuated &^ failedBit, FailCycle: s.FailedAt()}
}

// RestoreState overlays a previously captured wear state onto the switch.
// The hidden lifetime is untouched — callers must restore onto a switch
// fabricated from the same RNG stream, or wearout semantics are undefined
// — and st must be Reachable, or State will not give it back.
func (s *Switch) RestoreState(st State) {
	s.wear = st.Wear
	s.actuated = st.Actuated
	if st.FailCycle != 0 {
		s.actuated |= failedBit
	}
}

// Working reports whether the switch can still conduct.
func (s *Switch) Working() bool { return s.actuated&failedBit == 0 }

// Wear returns the accumulated (environment-accelerated) actuation cycles.
// This is observable state, not a leak of the hidden lifetime: the
// controller served every actuation and knows each one's environment, so
// it could recompute this sum from its own request history. The
// wear-leveling planner ranks switches by it.
func (s *Switch) Wear() float64 { return s.wear }

// FailedAt returns the 1-based actuation index at which the switch failed,
// or 0 if it is still working.
func (s *Switch) FailedAt() uint64 {
	if s.Working() {
		return 0
	}
	return s.actuated &^ failedBit
}

// String implements fmt.Stringer without leaking the hidden lifetime.
func (s *Switch) String() string {
	state := "working"
	if at := s.FailedAt(); at != 0 {
		state = fmt.Sprintf("failed@%d", at)
	}
	return fmt.Sprintf("nems.Switch{actuations=%d, %s}", s.actuated&^failedBit, state)
}

// --- Populations ----------------------------------------------------------------

// Population fabricates switches from one lifetime model, standing in for
// a manufacturing lot.
type Population struct {
	Variation weibull.Variation
	rng       *rng.RNG
}

// NewPopulation creates a manufacturing lot model. If cvAlpha or cvBeta are
// nonzero, each device gets its own perturbed Weibull parameters.
func NewPopulation(nominal weibull.Dist, cvAlpha, cvBeta float64, r *rng.RNG) *Population {
	return &Population{
		Variation: weibull.Variation{Nominal: nominal, CVAlpha: cvAlpha, CVBeta: cvBeta},
		rng:       r,
	}
}

// Fabricate produces one switch from the lot.
func (p *Population) Fabricate() *Switch {
	return FabricateWithVariation(p.Variation, p.rng)
}

// MeasureLifetimes destructively cycles n fresh devices to failure and
// returns their observed lifetimes — the characterization experiment a
// fabricator would run to fit (α, β) for the DSE.
func (p *Population) MeasureLifetimes(n int, maxCycles uint64) []weibull.Obs {
	obs := make([]weibull.Obs, n)
	for i := range obs {
		s := p.Fabricate()
		var c uint64
		for c = 0; c < maxCycles; c++ {
			if err := s.Actuate(RoomTemp); err != nil {
				break
			}
		}
		if s.Working() {
			obs[i] = weibull.Obs{Time: float64(maxCycles), Censored: true}
		} else {
			obs[i] = weibull.Obs{Time: float64(s.FailedAt())}
		}
	}
	return obs
}
