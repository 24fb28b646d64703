package otp

import (
	"testing"

	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

func TestStrategiesCannotBeatSecureDesign(t *testing.T) {
	// At the paper's secure operating point (H=8, k=8), no sweep order —
	// random, systematic, or striped — assembles the real key, even with
	// a generous sweep budget (the shared upper tree levels wear out
	// long before the 128 leaf positions are covered).
	p := Params{Dist: weibull.MustNew(10, 1), Height: 8, Copies: 64, K: 8}
	for _, s := range []Strategy{RandomStrategy{}, SystematicStrategy{}, StripedStrategy{}} {
		for seed := uint64(0); seed < 6; seed++ {
			r := rng.New(seed)
			pad, _, err := Fabricate(p, 5, r.Derive("fab"))
			if err != nil {
				t.Fatal(err)
			}
			out, err := pad.RunStrategy(s, 5, 200, nems.RoomTemp, r.Derive("adv"))
			if err != nil {
				t.Fatal(err)
			}
			if out.GotTarget {
				t.Errorf("strategy %q assembled the target key (seed %d)", s.Name(), seed)
			}
			if out.KeysObtained > 0 {
				t.Logf("strategy %q assembled %d decoy keys (seed %d)", s.Name(), out.KeysObtained, seed)
			}
		}
	}
}

func TestSystematicReadsOutWeakDesign(t *testing.T) {
	// On an insecure low tree with durable-enough switches, the
	// systematic sweep reads the whole chip out: every leaf position —
	// including the target — is assembled. This is exactly the failure
	// mode that makes low trees unsafe, and why the secure design must
	// hold against more than the paper's random-trial adversary.
	p := Params{Dist: weibull.MustNew(10, 1), Height: 3, Copies: 32, K: 4}
	gotTarget := 0
	const trials = 15
	for seed := uint64(0); seed < trials; seed++ {
		r := rng.New(seed)
		pad, _, err := Fabricate(p, 2, r.Derive("fab"))
		if err != nil {
			t.Fatal(err)
		}
		out, err := pad.RunStrategy(SystematicStrategy{}, 2, p.Paths(), nems.RoomTemp, r.Derive("adv"))
		if err != nil {
			t.Fatal(err)
		}
		if out.GotTarget {
			gotTarget++
		}
	}
	if gotTarget < trials*2/3 {
		t.Errorf("systematic readout of a weak design succeeded only %d/%d times", gotTarget, trials)
	}
}

func TestRunStrategyValidation(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 2, Copies: 8, K: 2}
	r := rng.New(1)
	pad, _, err := Fabricate(p, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pad.RunStrategy(RandomStrategy{}, 0, -1, nems.RoomTemp, r); err == nil {
		t.Error("negative sweeps should error")
	}
	out, err := pad.RunStrategy(RandomStrategy{}, 0, 0, nems.RoomTemp, r)
	if err != nil || out.KeysObtained != 0 {
		t.Error("zero sweeps should be a no-op")
	}
}

func TestStrategyNames(t *testing.T) {
	var (
		r  RandomStrategy
		sy SystematicStrategy
		st StripedStrategy
	)
	if r.Name() != "random" || sy.Name() != "systematic" || st.Name() != "striped" {
		t.Error("strategy names wrong")
	}
}

func TestMultiTrialBoundHolds(t *testing.T) {
	// Monte-Carlo multi-sweep campaigns must stay below the analytic
	// union bound (wearout makes later sweeps strictly weaker).
	p := Params{Dist: weibull.MustNew(10, 1), Height: 5, Copies: 32, K: 4}
	const trials = 400
	const sweeps = 5
	bound := AdversaryMultiTrialBound(p, sweeps)
	hits := 0
	for seed := uint64(0); seed < trials; seed++ {
		r := rng.New(seed)
		pad, _, err := Fabricate(p, 3, r.Derive("fab"))
		if err != nil {
			t.Fatal(err)
		}
		out, err := pad.RunStrategy(RandomStrategy{}, 3, sweeps, nems.RoomTemp, r.Derive("adv"))
		if err != nil {
			t.Fatal(err)
		}
		if out.GotTarget {
			hits++
		}
	}
	emp := float64(hits) / trials
	// allow 3 binomial sigmas of slack on the MC estimate
	sigma := 3 * 0.5 / 31.6 // conservative p(1-p)<=0.25, sqrt(400)=20 → 3*0.5/20
	if emp > bound+sigma {
		t.Errorf("empirical multi-trial success %g exceeds union bound %g", emp, bound)
	}
	if bound <= 0 || bound > 1 {
		t.Errorf("bound out of range: %g", bound)
	}
}

func TestMultiTrialBoundEdges(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 2, Copies: 16, K: 1}
	if AdversaryMultiTrialBound(p, 0) != 0 {
		t.Error("zero trials should bound at 0")
	}
	if AdversaryMultiTrialBound(p, 1000000) != 1 {
		t.Error("huge trial counts should clamp at 1")
	}
}
