package otp

import (
	"fmt"
	"math"

	"lemonade/internal/mathx"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// Adversary strategies beyond the random-path trial the paper models
// (Eqs 12–15). The paper assumes the adversary "can only do random path
// trials"; these variants check that smarter sweep orders do not beat the
// design, strengthening the security argument.

// Strategy is an adversarial read-out plan for a stolen/borrowed pad.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// NextPath chooses the path to try in copy `copyIdx` of sweep
	// `sweep`, given the pad geometry.
	NextPath(p Params, sweep, copyIdx int, r *rng.RNG) int
}

// RandomStrategy is the paper's Eq 12–15 adversary: an independent
// uniform path per copy per sweep.
type RandomStrategy struct{}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "random" }

// NextPath implements Strategy.
func (RandomStrategy) NextPath(p Params, _, _ int, r *rng.RNG) int {
	return r.Intn(p.Paths())
}

// SystematicStrategy enumerates paths in order, same path across all
// copies within a sweep — the adversary methodically reading the whole
// chip out. It maximizes per-sweep share alignment but burns the shared
// upper tree levels the fastest.
type SystematicStrategy struct{}

// Name implements Strategy.
func (SystematicStrategy) Name() string { return "systematic" }

// NextPath implements Strategy.
func (SystematicStrategy) NextPath(p Params, sweep, _ int, r *rng.RNG) int {
	return sweep % p.Paths()
}

// StripedStrategy tries a different path in each copy within one sweep,
// rotating so each sweep covers many leaves while spreading switch wear.
type StripedStrategy struct{}

// Name implements Strategy.
func (StripedStrategy) Name() string { return "striped" }

// NextPath implements Strategy.
func (StripedStrategy) NextPath(p Params, sweep, copyIdx int, r *rng.RNG) int {
	return (sweep + copyIdx) % p.Paths()
}

// SweepOutcome summarizes an adversarial campaign against one pad.
type SweepOutcome struct {
	Strategy     string
	Sweeps       int
	KeysObtained int  // candidate keys fully assembled (k+ shares at one leaf position)
	GotTarget    bool // the real key's leaf position was among them
}

// RunStrategy executes `sweeps` sweeps of the strategy against a freshly
// understood pad and reports which candidate keys the adversary fully
// assembled. The adversary does not know the target path; GotTarget
// records whether the real key fell.
func (pad *Pad) RunStrategy(s Strategy, targetPath, sweeps int, env nems.Environment, r *rng.RNG) (SweepOutcome, error) {
	if sweeps < 0 {
		return SweepOutcome{}, fmt.Errorf("otp: negative sweep count %d", sweeps)
	}
	p := pad.params
	got := make([]int, p.Paths()) // shares recovered per leaf position
	for sweep := 0; sweep < sweeps; sweep++ {
		for ci, t := range pad.trees {
			path := s.NextPath(p, sweep, ci, r)
			if data, _ := t.traverse(path, env); data != nil {
				got[path]++
			}
		}
	}
	out := SweepOutcome{Strategy: s.Name(), Sweeps: sweeps}
	for path, count := range got {
		if count >= p.K {
			out.KeysObtained++
			if path == targetPath {
				out.GotTarget = true
			}
		}
	}
	return out, nil
}

// AdversaryMultiTrialBound bounds the success probability of an adversary
// who runs `trials` full sweeps instead of the single trial Eq 15 models,
// *accumulating* recovered components across sweeps (a target share from
// sweep 3 combines with one from sweep 1 — strictly stronger than
// repeating independent Eq-15 trials).
//
// Ignoring wearout — which only hurts the adversary — each copy yields
// its target-position share at most once (the leaf is read-destructive),
// with per-sweep probability S1/2^(H-1), so across T sweeps a copy falls
// with probability at most q = 1 − (1 − S1/2^(H-1))^T, and the campaign
// succeeds with probability at most P(Binomial(n, q) ≥ k). Real sweeps
// additionally destroy the shared upper tree levels, so Monte-Carlo
// campaigns sit below this bound.
func AdversaryMultiTrialBound(p Params, trials int) float64 {
	if trials <= 0 {
		return 0
	}
	perSweep := PathSuccess(p.Dist, p.Height) * math.Exp2(-float64(p.Height-1))
	q := 1 - math.Pow(1-perSweep, float64(trials))
	return mathx.BinomTailGE(p.Copies, p.K, q)
}
