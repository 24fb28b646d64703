// Package dse implements the engineering/design-space exploration of
// §4.3, §5 and §6.4 of the paper: given a device wearout model (α, β), a
// legitimate access bound (LAB), an optional higher upper-bound target, and
// fast-degradation criteria, find the cheapest architecture —
//
//	N copies × (k-out-of-n parallel structure)
//
// — that statistically guarantees the system-level usage window.
//
// Construction (§4.1.1–§4.1.4): the LAB is divided across Copies serially
// used structures; each structure must work through its per-copy target T
// with probability ≥ MinWork and be dead by access UpperT+1 with
// probability ≥ 1−MaxOverrun. Without redundant encoding the structure is
// 1-out-of-n (Eq 6); with encoding it is k-out-of-n with k = ⌈KFrac·n⌉
// (Eq 8, realized by Shamir/Reed-Solomon shares).
//
// The search minimizes the total device count Copies·n over the per-copy
// target T. Feasibility uses exact binomial tails, so no-encoding designs
// with n ~ 1e9 and encoded designs with n ~ 1e2 are handled uniformly.
package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lemonade/internal/cost"
	"lemonade/internal/mathx"
	"lemonade/internal/reliability"
	"lemonade/internal/structure"
	"lemonade/internal/weibull"
)

// ErrInfeasible is returned when no architecture meets the criteria for any
// per-copy target.
var ErrInfeasible = errors.New("dse: no feasible design for the given device model and criteria")

// Spec is a design problem.
type Spec struct {
	// Dist is the device wearout model.
	Dist weibull.Dist
	// Criteria are the per-structure fast-degradation criteria.
	Criteria reliability.Criteria
	// LAB is the system-level legitimate access bound (minimum usage).
	LAB int
	// UpperBound is the system-level maximum usage target. Zero means
	// "wear out as quickly as possible after LAB" (UpperBound = LAB).
	// Fig 4d uses 100,000 / 200,000 here (stronger-passcode targets).
	UpperBound int
	// KFrac selects redundant encoding: 0 means no encoding (1-out-of-n);
	// otherwise k = max(1, ceil(KFrac·n)) components are required per
	// access (§4.1.4). Must be < 1.
	KFrac float64
	// MaxPerStructure caps n for encoded searches (default 4,000,000).
	MaxPerStructure int
	// ContinuousT evaluates the degradation criteria at continuous access
	// times, matching the paper's numerical-simulation methodology and
	// producing smooth sweep curves. The default (false) restricts
	// per-copy targets to whole accesses, which is physically exact but
	// quantizes the design space (visible as jagged sweeps, cf. the
	// paper's own remark about Fig 5's "less smooth" curves).
	ContinuousT bool
}

// FieldError is a validation failure attributed to one Spec field, so API
// surfaces (the lemonaded request decoder, CLI flag handlers) can report
// which field to fix without parsing error strings. It unwraps to the
// underlying cause and, like every validation error, satisfies
// errors.Is(err, ErrInvalidSpec).
type FieldError struct {
	Field string // Spec field, e.g. "Dist", "LAB", "KFrac"
	Err   error
}

// Error implements the error interface.
func (e *FieldError) Error() string { return fmt.Sprintf("dse: invalid %s: %v", e.Field, e.Err) }

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *FieldError) Unwrap() error { return e.Err }

// Is reports ErrInvalidSpec so callers can class-match without errors.As.
func (e *FieldError) Is(target error) bool { return target == ErrInvalidSpec }

// ErrInvalidSpec classifies every Spec validation failure.
var ErrInvalidSpec = errors.New("dse: invalid spec")

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Err: fmt.Errorf(format, args...)}
}

// Validate checks the spec field by field, returning a *FieldError naming
// the first offending field. Callers reject bad Specs up front — before
// paying for a search — with a message they can attribute to an input.
func (s Spec) Validate() error {
	if err := s.Dist.Validate(); err != nil {
		return &FieldError{Field: "Dist", Err: err}
	}
	if err := s.Criteria.Validate(); err != nil {
		return &FieldError{Field: "Criteria", Err: err}
	}
	if s.LAB < 1 {
		return fieldErrf("LAB", "must be >= 1, got %d", s.LAB)
	}
	if s.UpperBound != 0 && s.UpperBound < s.LAB {
		return fieldErrf("UpperBound", "%d below LAB %d", s.UpperBound, s.LAB)
	}
	if s.KFrac < 0 || s.KFrac >= 1 {
		return fieldErrf("KFrac", "must be in [0, 1), got %g", s.KFrac)
	}
	if s.MaxPerStructure < 0 {
		return fieldErrf("MaxPerStructure", "must be >= 0, got %d", s.MaxPerStructure)
	}
	return nil
}

// CacheKey returns a canonical string identifying the design problem: two
// Specs that denote the same search — including ones that differ only in
// defaulted fields (UpperBound 0 vs LAB, MaxPerStructure 0 vs the default
// cap) — share a key. The lemonaded DSE cache uses it so identical
// searches never recompute; it is only meaningful for valid Specs.
func (s Spec) CacheKey() string {
	return fmt.Sprintf("a=%g|b=%g|mw=%g|mo=%g|lab=%d|ub=%d|kf=%g|max=%d|ct=%t",
		s.Dist.Alpha, s.Dist.Beta,
		s.Criteria.MinWork, s.Criteria.MaxOverrun,
		s.LAB, s.upperBound(), s.KFrac, s.maxPerStructure(), s.ContinuousT)
}

func (s Spec) upperBound() int {
	if s.UpperBound == 0 {
		return s.LAB
	}
	return s.UpperBound
}

func (s Spec) maxPerStructure() int {
	if s.MaxPerStructure > 0 {
		return s.MaxPerStructure
	}
	return 4_000_000
}

// Design is a concrete feasible architecture.
type Design struct {
	Spec Spec

	T      int // per-copy reliable access target
	UpperT int // per-copy access bound the copy must be dead past
	N      int // devices per parallel structure
	K      int // survivors required per access (1 = no encoding)
	Copies int // serially used structures

	// TReal and UpperTReal are the continuous per-copy targets when
	// Spec.ContinuousT is set; otherwise they equal float64(T) and
	// float64(UpperT).
	TReal      float64
	UpperTReal float64

	TotalDevices int

	// Analytic guarantees of the chosen design:
	WorkProb    float64 // P(one copy works through T accesses)
	OverrunProb float64 // P(one copy still works at access UpperT+1)
}

// model returns the reliability model of one copy.
func (d Design) model() reliability.Model {
	return reliability.Model{Dist: d.Spec.Dist, N: d.N, K: d.K}
}

// System returns the serial-copies composition for system-level analysis.
func (d Design) System() reliability.System {
	return reliability.System{Copy: d.model(), Copies: d.Copies}
}

// GuaranteedMinAccesses returns the system-level minimum usage this design
// supports: ⌊Copies · TReal⌋ ≥ LAB by construction (accesses are spread
// unevenly across copies, so the per-copy target need not be integral).
func (d Design) GuaranteedMinAccesses() int {
	return int(float64(d.Copies) * d.TReal)
}

// MaxAllowedAccesses returns the system-level maximum usage bound
// ⌈Copies · UpperTReal⌉ — like the paper's "empirical access upper bound"
// it slightly overshoots the LAB (91,326 vs 91,250 in their baseline).
func (d Design) MaxAllowedAccesses() int {
	return int(math.Ceil(float64(d.Copies) * d.UpperTReal))
}

// Area returns the silicon area of the design: switches plus, for encoded
// designs, the component-key storage. The share set is stored once and
// reused across the serial copies, so the storage is proportional to one
// parallel structure (§4.3.2: "proportional to the size of the parallel
// structure"); each of the n shares holds the keyBits-bit component plus
// an 8-bit share index.
func (d Design) Area(keyBits int) cost.Area {
	a := cost.SwitchArea(d.TotalDevices)
	if d.K > 1 {
		a += cost.ShareStorageArea(d.N, keyBits+8)
	}
	return a
}

// EnergyPerAccess returns the switching energy of one access (§4.3.2).
func (d Design) EnergyPerAccess() cost.Energy { return cost.AccessEnergy(d.N) }

// LatencyPerAccess returns the access latency (§4.3.2).
func (d Design) LatencyPerAccess() cost.Latency { return cost.ParallelAccessLatency() }

// String implements fmt.Stringer.
func (d Design) String() string {
	enc := "no encoding"
	if d.K > 1 {
		enc = fmt.Sprintf("k=%d-of-n encoding", d.K)
	}
	return fmt.Sprintf("Design{%s, %s: %d copies × %d devices (T=%d), total %d}",
		d.Spec.Dist, enc, d.Copies, d.N, d.T, d.TotalDevices)
}

// --- Exploration -------------------------------------------------------------------

// Explore finds the design minimizing total device count over the per-copy
// target T.
func Explore(spec Spec) (Design, error) {
	if err := spec.Validate(); err != nil {
		return Design{}, err
	}
	var (
		best  Design
		found bool
	)
	consider := func(cand Design, ok bool) {
		if ok && (!found || cand.TotalDevices < best.TotalDevices) {
			best = cand
			found = true
		}
	}
	upper := spec.upperBound()
	tMax := 4*spec.Dist.Alpha + 8
	if tMax > float64(upper) {
		tMax = float64(upper)
	}
	if spec.ContinuousT {
		// Coarse grid, then two refinement passes around the best point —
		// the paper's numerical-simulation methodology, where per-copy
		// targets are effectively continuous because accesses can be
		// apportioned unevenly across thousands of copies.
		lo, hi := 1.0, tMax
		for pass := 0; pass < 3; pass++ {
			const steps = 400
			step := (hi - lo) / steps
			if step <= 0 {
				break
			}
			bestT := lo
			for i := 0; i <= steps; i++ {
				t := lo + float64(i)*step
				cand, ok := designAt(spec, t, upper)
				if ok && (!found || cand.TotalDevices < best.TotalDevices) {
					bestT = t
				}
				consider(cand, ok)
			}
			lo = math.Max(1, bestT-2*step)
			hi = math.Min(tMax, bestT+2*step)
		}
	} else {
		for t := 1; float64(t) <= tMax; t++ {
			consider(designAt(spec, float64(t), upper))
		}
	}
	if !found {
		return Design{}, fmt.Errorf("%w: %s", ErrInfeasible, spec.Dist)
	}
	return best, nil
}

// designAt solves the cheapest structure for per-copy target t, returning
// false if infeasible.
func designAt(spec Spec, t float64, upper int) (Design, bool) {
	if t < 1 {
		return Design{}, false
	}
	copies := int(math.Ceil(float64(spec.LAB) / t))
	if copies < 1 {
		copies = 1
	}
	// Per-copy upper bound: each copy must die by upperT+1 so the system
	// stays near `upper` total accesses. With Copies·T already overshooting
	// LAB by up to T−1 (the paper's own baseline upper bound is 91,326 for
	// LAB 91,250), the tightest possible per-copy bound is T itself; a
	// larger explicit UpperBound widens it.
	upperT := t
	if u := float64(upper / copies); u > upperT {
		upperT = u
	}
	rLo := spec.Dist.Reliability(t)          // device survives target
	rHi := spec.Dist.Reliability(upperT + 1) // device survives past bound
	c := spec.Criteria
	var (
		n, k int
		ok   bool
	)
	if spec.KFrac == 0 {
		k = 1
		n, ok = solveUnencoded(rLo, rHi, c)
	} else {
		n, k, ok = solveEncoded(rLo, rHi, c, spec.KFrac, spec.maxPerStructure())
	}
	if !ok {
		return Design{}, false
	}
	total := float64(copies) * float64(n)
	if total > 1e15 {
		// Beyond any physically meaningful device count; treat as
		// infeasible rather than risking integer overflow.
		return Design{}, false
	}
	return Design{
		Spec:         spec,
		T:            int(t),
		UpperT:       int(upperT),
		TReal:        t,
		UpperTReal:   upperT,
		N:            n,
		K:            k,
		Copies:       copies,
		TotalDevices: copies * n,
		WorkProb:     structure.ParallelReliability(spec.Dist, n, k, t),
		OverrunProb:  structure.ParallelReliability(spec.Dist, n, k, upperT+1),
	}, true
}

// solveUnencoded finds minimal n for a 1-out-of-n structure:
//
//	(1-rLo)^n <= 1-MinWork   (works through T)
//	1-(1-rHi)^n <= MaxOverrun (dead past UpperT)
//
// Both bounds are closed-form in log space.
func solveUnencoded(rLo, rHi float64, c reliability.Criteria) (int, bool) {
	if rLo <= 0 {
		return 0, false // no device count can make the structure reliable
	}
	var nMin int
	if rLo >= 1 {
		nMin = 1
	} else {
		nMinF := math.Ceil(math.Log(1-c.MinWork) / math.Log1p(-rLo))
		if !(nMinF <= 1e15) {
			return 0, false // physically meaningless device count
		}
		nMin = int(nMinF)
		if nMin < 1 {
			nMin = 1
		}
	}
	if rHi <= 0 {
		return nMin, true // devices never overrun; any n works
	}
	if rHi >= 1 {
		return 0, false
	}
	nMaxF := math.Log(1-c.MaxOverrun) / math.Log1p(-rHi)
	if float64(nMin) > nMaxF {
		return 0, false
	}
	return nMin, true
}

// solveEncoded finds minimal n (and its k = ceil(kFrac·n)) for a
// k-out-of-n structure meeting both binomial-tail criteria. Feasibility
// requires the device survival probabilities to straddle the threshold
// fraction: rHi < kFrac < rLo.
func solveEncoded(rLo, rHi float64, c reliability.Criteria, kFrac float64, nCap int) (n, k int, ok bool) {
	if !(rHi < kFrac && kFrac < rLo) {
		return 0, 0, false
	}
	kOf := func(n int) int {
		k := int(math.Ceil(kFrac * float64(n)))
		if k < 1 {
			k = 1
		}
		return k
	}
	feasible := func(n int) bool {
		k := kOf(n)
		if k > n {
			return false
		}
		return mathx.BinomTailGE(n, k, rLo) >= c.MinWork &&
			mathx.BinomTailGE(n, k, rHi) <= c.MaxOverrun
	}
	// The feasibility predicate is monotone in n up to ceil-jitter in k.
	// Binary-search a candidate, then locally scan downward to absorb the
	// jitter.
	n = mathx.MinIntSearch(1, nCap, feasible)
	if n > nCap {
		return 0, 0, false
	}
	for cand := n - 1; cand >= 1 && cand >= n-64; cand-- {
		if feasible(cand) {
			n = cand
		}
	}
	return n, kOf(n), true
}

// ExploreFrontier returns every feasible design across integer per-copy
// targets, sorted by total device count — the trade space between many
// small copies (frequent handovers, fine-grained bounds) and few large
// structures (simpler provisioning). Explore returns frontier[0].
// Continuous-T specs are evaluated at integer targets here, since the
// frontier's purpose is to enumerate physically distinct architectures.
//
// The context cancels the sweep between per-copy targets (a server drops
// the search when its client disconnects or it is draining for shutdown);
// with context.Background() no cancellation checks are made and behavior
// is identical to the pre-context API.
//
// Note that encoded specs (KFrac > 0) usually admit exactly one integer
// target: device reliability is monotone in access count, so the straddle
// condition R(T) > KFrac > R(UpperT+1) singles out the crossing point.
// The interesting multi-point frontiers belong to unencoded designs.
func ExploreFrontier(ctx context.Context, spec Spec) ([]Design, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	upper := spec.upperBound()
	tMax := 4*spec.Dist.Alpha + 8
	if tMax > float64(upper) {
		tMax = float64(upper)
	}
	// Largest integer target to evaluate; clamped before conversion since
	// float-to-int overflow is implementation-defined.
	var points int
	if tMax >= math.MaxInt64 {
		points = math.MaxInt64
	} else {
		points = int(math.Floor(tMax))
	}
	var out []Design
	if points < frontierParallelThreshold || runtime.GOMAXPROCS(0) == 1 {
		// Sequential path: paper-scale sweeps (tMax = 4α+8 with α in the
		// tens) fit here, where worker startup would cost more than the
		// whole sweep.
		cancellable := ctx.Done() != nil
		for t := 1; t <= points; t++ {
			if cancellable && t%64 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if d, ok := designAt(spec, float64(t), upper); ok {
				out = append(out, d)
			}
		}
	} else {
		out = exploreFrontierParallel(ctx, spec, upper, points)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, spec.Dist)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalDevices < out[j].TotalDevices })
	return out, nil
}

// frontierParallelThreshold is the point count below which ExploreFrontier
// stays sequential.
const frontierParallelThreshold = 256

// exploreFrontierParallel evaluates the per-copy targets 1..points across
// a bounded worker pool. designAt is a pure function of (spec, t), so
// parallel evaluation is trivially deterministic; the ordering contract is
// preserved by collecting results into a slice indexed by t-1 and merging
// in index order — exactly the append order of the sequential loop, fed to
// the same sort. Workers claim chunks of consecutive targets from an
// atomic counter; cancellation stops chunk claims and the caller reports
// ctx.Err() as usual.
func exploreFrontierParallel(ctx context.Context, spec Spec, upper, points int) []Design {
	const chunk = 32
	results := make([]Design, points)
	oks := make([]bool, points)
	workers := runtime.GOMAXPROCS(0)
	maxWorkers := (points + chunk - 1) / chunk
	if workers > maxWorkers {
		workers = maxWorkers
	}
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(chunk)) - chunk
				if start >= points {
					return
				}
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				end := start + chunk
				if end > points {
					end = points
				}
				for i := start; i < end; i++ {
					results[i], oks[i] = designAt(spec, float64(i+1), upper)
				}
			}
		}()
	}
	wg.Wait()
	var out []Design
	for i, ok := range oks {
		if ok {
			out = append(out, results[i])
		}
	}
	return out
}

// --- Sweeps (figure generators build on these) ---------------------------------------

// SweepPoint is one (α, total devices) result of a parameter sweep.
type SweepPoint struct {
	Alpha    float64
	Design   Design
	Feasible bool
}

// SweepAlpha runs Explore across a range of scale parameters with fixed
// shape, criteria and encoding — the x-axis of Figs 4a, 4b, 4c, 5a, 5b.
func SweepAlpha(base Spec, alphas []float64) []SweepPoint {
	out := make([]SweepPoint, len(alphas))
	for i, a := range alphas {
		s := base
		s.Dist = weibull.Dist{Alpha: a, Beta: base.Dist.Beta}
		d, err := Explore(s)
		out[i] = SweepPoint{Alpha: a, Design: d, Feasible: err == nil}
	}
	return out
}
