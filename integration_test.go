// Integration tests: end-to-end flows across the module boundaries —
// characterize → design → fabricate → operate → attack.
package lemonade_test

import (
	"bytes"
	"errors"
	"testing"

	"lemonade/internal/attack"
	"lemonade/internal/connection"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/otp"
	"lemonade/internal/password"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// TestCharacterizeDesignBuildOperate is the full fabrication pipeline: a
// manufacturing lot is characterized by cycling sample devices to failure,
// the Weibull parameters are refit from the measurements, the DSE sizes an
// architecture from the *fitted* (not true) parameters, and the fabricated
// system still honours its usage window.
func TestCharacterizeDesignBuildOperate(t *testing.T) {
	truth := weibull.MustNew(13, 9) // the fab's secret process parameters
	r := rng.New(4242)

	// 1. Characterize: destructive lifetime testing of 3000 samples.
	lot := nems.NewPopulation(truth, 0, 0, r.Derive("lot"))
	obs := lot.MeasureLifetimes(3000, 100)
	fitted, err := weibull.Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.Alpha < truth.Alpha-1 || fitted.Alpha > truth.Alpha+2.5 {
		t.Fatalf("characterization off: fitted %v from truth %v", fitted, truth)
	}

	// 2. Design from the fitted model.
	design, err := dse.Explore(dse.Spec{
		Dist:        fitted,
		Criteria:    reliability.DefaultCriteria,
		LAB:         60,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Fabricate with the TRUE process and operate.
	trueDesign := design
	trueDesign.Spec.Dist = truth
	secret := []byte("pipeline secret")
	arch, err := core.Build(trueDesign, secret, r.Derive("fab"))
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	for arch.Alive() {
		got, err := arch.Access(nems.RoomTemp)
		if err == nil {
			if !bytes.Equal(got, secret) {
				t.Fatal("wrong secret")
			}
			succ++
		}
	}
	// The design was sized from an imperfect fit; allow modest slack on
	// the window but the order must hold.
	if succ < design.GuaranteedMinAccesses()*8/10 {
		t.Errorf("delivered %d accesses, designed %d", succ, design.GuaranteedMinAccesses())
	}
	if succ > design.MaxAllowedAccesses()*3 {
		t.Errorf("delivered %d accesses, far beyond designed max %d", succ, design.MaxAllowedAccesses())
	}
}

// TestSmartphoneLifecycle drives a phone through normal use, theft, brute
// force and lockout, mirroring the §4 narrative at reduced scale.
func TestSmartphoneLifecycle(t *testing.T) {
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         120,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	userPass := password.PasswordString(5_000_000) // an unpopular passcode
	phone, err := connection.NewDevice(design, userPass, []byte("storage"), r)
	if err != nil {
		t.Fatal(err)
	}
	// normal use: 100 unlocks, retrying the transient copy-boundary
	// failures as the unlock protocol would
	ok := 0
	for i := 0; i < 100; i++ {
		_, err := phone.Unlock(userPass, nems.RoomTemp)
		if errors.Is(err, connection.ErrTransient) {
			_, err = phone.Unlock(userPass, nems.RoomTemp)
		}
		if err == nil {
			ok++
		}
	}
	if ok < 98 {
		t.Fatalf("owner lost %d of 100 unlocks even with retries", 100-ok)
	}
	// theft: popularity-ordered brute force
	guesses := 0
	for g := uint64(1); !phone.Locked(); g++ {
		guesses++
		if _, err := phone.Unlock(password.PasswordString(g), nems.RoomTemp); err == nil {
			t.Fatal("thief cracked an unpopular passcode within the wearout budget")
		}
		if guesses > design.MaxAllowedAccesses()*3 {
			t.Fatal("device never locked")
		}
	}
	// the remaining budget was ~20 accesses plus bounded overrun
	if guesses > design.MaxAllowedAccesses()-100+3*design.Copies {
		t.Errorf("thief got %d guesses, budget said ~%d", guesses, design.MaxAllowedAccesses()-100)
	}
	if _, err := phone.Unlock(userPass, nems.RoomTemp); !errors.Is(err, connection.ErrLocked) {
		t.Error("locked phone served the owner")
	}
}

// TestOTPConversationWithAdversary exchanges several messages while an
// adversary sweeps every pad once in between; the analytic design point
// must keep the channel alive and the adversary empty-handed.
func TestOTPConversationWithAdversary(t *testing.T) {
	p := otp.Params{Dist: weibull.MustNew(10, 1), Height: 8, Copies: 64, K: 8}
	r := rng.New(31337)
	chip, book, err := otp.FabricateChip(p, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	maid := rng.New(666)
	delivered := 0
	for i, text := range []string{"one", "two", "three", "four"} {
		// the maid sneaks one sweep of the next pad before each message
		if _, ok := chip.Pad(i).AdversaryTrial(0, nems.RoomTemp, maid); ok {
			t.Fatal("adversary assembled a key at H=8")
		}
		msg, err := book.Encrypt([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		got, err := chip.Decrypt(msg, nems.RoomTemp)
		if err == nil {
			if !bytes.Equal(got, []byte(text)) {
				t.Fatalf("message %d corrupted", i)
			}
			delivered++
		}
	}
	if delivered < 3 {
		t.Errorf("only %d/4 messages survived light sweeping", delivered)
	}
}

// TestDepletionLeavesSecretsSafe is the §7 availability/confidentiality
// trade at integration scale.
func TestDepletionLeavesSecretsSafe(t *testing.T) {
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(12, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         50,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := attack.Depletion(design, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if out.DataExposed {
		t.Error("depletion exposed data")
	}
	if !out.OwnerLockedOut {
		t.Error("depletion should cost availability")
	}
}

// TestFullScaleSmartphoneArchitecture is the flagship end-to-end run:
// fabricate the paper's actual design point — α=14, β=8, k=10%·n,
// LAB=91,250, ~848k simulated NEMS switches — and drive it through its
// entire life, verifying the designed usage window at full scale.
func TestFullScaleSmartphoneArchitecture(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run (~13M switch actuations)")
	}
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         91_250,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("design: %v", design)
	r := rng.New(91250)
	secret := []byte("the real storage decryption key!")
	arch, err := core.Build(design, secret, r)
	if err != nil {
		t.Fatal(err)
	}
	succ := 0
	for arch.Alive() {
		got, err := arch.Access(nems.RoomTemp)
		if err == nil {
			succ++
			if succ == 1 && !bytes.Equal(got, secret) {
				t.Fatal("wrong secret at full scale")
			}
		}
	}
	t.Logf("delivered %d accesses (designed window %d–%d)",
		succ, design.GuaranteedMinAccesses(), design.MaxAllowedAccesses())
	// System-level min: each copy meets its target with 99% probability,
	// and shortfalls are single accesses, so the total sits within a
	// fraction of a percent of the guarantee.
	if succ < design.GuaranteedMinAccesses()-design.Copies {
		t.Errorf("full-scale run delivered %d accesses, guarantee %d", succ, design.GuaranteedMinAccesses())
	}
	// System-level max: per-copy overruns are ≤1% likely and worth a
	// couple of accesses each.
	limit := design.MaxAllowedAccesses() + design.Copies
	if succ > limit {
		t.Errorf("full-scale run delivered %d accesses, beyond %d", succ, limit)
	}
}

// TestOTPChipPlanToMessages plans a chip for a workload, fabricates it,
// and exchanges every planned message.
func TestOTPChipPlanToMessages(t *testing.T) {
	plan, err := otp.PlanChip(weibull.MustNew(10, 1), 3, 200, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(777)
	chip, book, err := otp.FabricateChip(plan.Params, plan.Pads, r)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < plan.Pads; i++ {
		text := bytes.Repeat([]byte{byte('a' + i)}, 200)
		msg, err := book.Encrypt(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := chip.Decrypt(msg, nems.RoomTemp)
		if err != nil {
			continue
		}
		if !bytes.Equal(got, text) {
			t.Fatalf("message %d corrupted", i)
		}
		delivered++
	}
	if delivered < plan.Pads-1 {
		t.Errorf("delivered %d of %d planned messages", delivered, plan.Pads)
	}
}
