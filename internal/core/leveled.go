package core

import (
	"errors"
	"fmt"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// Leveling configures the wear-leveled architecture variant: each copy is
// fabricated with Spares extra physical switches behind a WoLFRaM-style
// programmable remap table (arXiv:2010.02825), and the table is rotated
// onto the least-worn switches on a deterministic epoch schedule.
//
// The defense targets the adversary of arXiv:2508.16868: an attacker who
// can steer stress onto chosen share indices (hot/cold cycling, targeted
// actuation) to burn out specific switches. Unleveled, that concentrates
// the whole attack budget on k victims; leveled, rotation spreads it over
// primaries + spares, so the min-use guarantee degrades no faster than
// uniform wear allows.
type Leveling struct {
	// Spares is the number of extra physical switches fabricated per copy
	// beyond the design's n primaries. Zero is legal: the remap table then
	// only levels wear among the primaries.
	Spares int
	// Epoch is the rotation cadence in wear-consuming operations (accesses
	// and stress pulses): once at least Epoch ops have elapsed since the
	// last rotation — or sooner, if an in-service switch wears out — the
	// architecture reports a pending remap plan.
	Epoch uint64
}

// RemapPlan is one wear-leveling decision: retire the listed physical
// switches of the copy, then install the assignment. Callers
// (internal/registry) apply it through Retire and ApplyRemap right after
// the durable op that made it due, and WAL recovery derives the same plan
// after the same replayed op, so the live table and the recovered table
// are bit-identical.
type RemapPlan struct {
	Copy   int
	Assign []int
	Retire []int
}

// BuildLeveled fabricates the wear-leveled variant of Build: the same
// (design, secret) encoding, with lv.Spares extra switches per copy and a
// remap bank routing the design's n logical shares onto the pool. The
// fabrication is deterministic in (design, secret, seed, lv), so recovery
// can rebuild it and overlay a captured State bit-identically.
func BuildLeveled(design dse.Design, secret []byte, lv Leveling, r *rng.RNG) (*Architecture, error) {
	if lv.Spares < 0 {
		return nil, fmt.Errorf("core: negative spare count %d", lv.Spares)
	}
	if lv.Epoch < 1 {
		return nil, fmt.Errorf("core: remap epoch must be at least 1, got %d", lv.Epoch)
	}
	lvCopy := lv
	return build(design, secret, &lvCopy, r)
}

// Leveling returns the wear-leveling configuration and whether the
// architecture is the leveled variant.
func (a *Architecture) Leveling() (Leveling, bool) {
	if a.leveling == nil {
		return Leveling{}, false
	}
	return *a.leveling, true
}

// Stress serves adversarial wear traffic: it actuates the targeted logical
// share slots of the active copy pulses times each, under env, and reports
// how many actuations conducted. It never decodes — stress reveals nothing
// about the secret, it only consumes wearout — and it never advances the
// active copy, so a stressed-to-death copy is only skipped when a real
// access next observes it. Both variants accept stress: the unleveled
// architecture is the attack's victim, the leveled one its defense.
//
// Stress is a wear mutation and must be written log-ahead by durable
// callers, exactly like Access. Once the pulses start they run to
// completion — fired actuations cannot be un-fired.
func (a *Architecture) Stress(env nems.Environment, indices []int, pulses int) (conducted int, err error) {
	if pulses < 1 {
		return 0, fmt.Errorf("core: stress needs at least 1 pulse, got %d", pulses)
	}
	if len(indices) == 0 {
		return 0, errors.New("core: stress needs at least one target index")
	}
	for _, i := range indices {
		if i < 0 || i >= a.design.N {
			return 0, fmt.Errorf("core: stress index %d out of range [0, %d)", i, a.design.N)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stressed += uint64(pulses)
	if a.leveling != nil {
		a.opsSince += uint64(pulses)
	}
	if a.cur >= len(a.copies) {
		return 0, ErrExhausted
	}
	c, accel := a.copies[a.cur], env.Acceleration()
	for p := 0; p < pulses; p++ {
		for _, i := range indices {
			if c.actuate(i, accel) == nil {
				conducted++
			}
		}
	}
	return conducted, nil
}

// Stressed returns the total stress pulses served over the architecture's
// lifetime (each pulse actuates every targeted index once).
func (a *Architecture) Stressed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stressed
}

// PendingRemap reports the rotation the wear-leveling schedule calls for,
// if any: the plan is due when at least Epoch wear-consuming ops have
// elapsed since the last rotation, or immediately when an in-service
// switch has worn out, and it is only reported when applying it would
// change state (a different assignment, or switches to retire). The plan
// itself is nems.Bank.PlanRemap — a pure function of observable wear — so
// equal histories yield equal plans.
//
// PendingRemap only inspects; callers apply the plan via Retire +
// ApplyRemap.
func (a *Architecture) PendingRemap() (RemapPlan, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.leveling == nil || a.cur >= len(a.copies) {
		return RemapPlan{}, false
	}
	b := a.copies[a.cur].bank
	if a.opsSince < a.leveling.Epoch && !b.RepairDue() {
		return RemapPlan{}, false
	}
	assign, retire := b.PlanRemap()
	if len(retire) == 0 && equalInts(assign, b.Assign()) {
		// Nothing would change (e.g. the current assignment is already the
		// least-worn set). Leave the epoch counter running; the next op
		// re-evaluates, and the plan is emitted as soon as wear diverges.
		return RemapPlan{}, false
	}
	return RemapPlan{Copy: a.cur, Assign: assign, Retire: retire}, true
}

// Retire permanently removes a physical switch of the given copy from
// wear-leveling service. It is idempotent. Retirement changes which
// switches future rotations may use, so durable callers apply it only as
// part of a plan that recovery derives at the same point in the log.
func (a *Architecture) Retire(copy, physical int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.leveling == nil {
		return errors.New("core: retire on an unleveled architecture")
	}
	if copy < 0 || copy >= len(a.copies) {
		return fmt.Errorf("core: retire: copy %d out of range [0, %d)", copy, len(a.copies))
	}
	return a.copies[copy].bank.Retire(physical)
}

// ApplyRemap installs a remap assignment on the given copy and resets the
// epoch counter. The assignment is validated for shape (width, range,
// distinctness) but not for the health of its targets, so any table a
// plan produces can be installed.
func (a *Architecture) ApplyRemap(copy int, assign []int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.leveling == nil {
		return errors.New("core: remap on an unleveled architecture")
	}
	if copy < 0 || copy >= len(a.copies) {
		return fmt.Errorf("core: remap: copy %d out of range [0, %d)", copy, len(a.copies))
	}
	if err := a.copies[copy].bank.SetAssign(assign); err != nil {
		return err
	}
	a.opsSince = 0
	a.remaps++
	return nil
}

// Remaps returns how many rotations have been applied over the
// architecture's lifetime.
func (a *Architecture) Remaps() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.remaps
}

// WearSkew reports the wear spread (max − min accumulated cycles) across
// the serving copy's switch pool — the gauge that makes a targeted-wearout
// attack visible. An unleveled architecture reports the raw spread of the
// active copy; a leveled one reports the spread over its non-retired pool.
// When every copy is exhausted the last copy's spread is reported.
func (a *Architecture) WearSkew() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	ci := a.cur
	if ci >= len(a.copies) {
		ci = len(a.copies) - 1
	}
	c := a.copies[ci]
	if c.bank != nil {
		return c.bank.WearSkew()
	}
	return nems.WearSkewOf(c.switches)
}

// SparesRemaining counts usable spare switches across every copy — the
// headroom left before the leveled architecture degrades like an
// unleveled one. Always zero for the unleveled variant.
func (a *Architecture) SparesRemaining() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, c := range a.copies {
		if c.bank != nil {
			n += c.bank.SparesRemaining()
		}
	}
	return n
}

// equalInts reports whether two int slices are element-wise equal.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
