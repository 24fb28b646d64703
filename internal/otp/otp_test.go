package otp

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"lemonade/internal/montecarlo"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// paperParams are the §6.4 defaults: α=10, β=1, n=128.
func paperParams(h, k int) Params {
	return Params{Dist: weibull.MustNew(10, 1), Height: h, Copies: 128, K: k}
}

func TestValidate(t *testing.T) {
	if err := paperParams(4, 8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Dist: weibull.MustNew(10, 1), Height: 0, Copies: 128, K: 8},
		{Dist: weibull.MustNew(10, 1), Height: 63, Copies: 128, K: 8},
		{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 0, K: 1},
		{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 300, K: 8},
		{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 128, K: 0},
		{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 128, K: 129},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should be invalid: %+v", i, p)
		}
	}
}

func TestPathCountAndKeyBits(t *testing.T) {
	p := paperParams(4, 8)
	if p.Paths() != 8 {
		t.Errorf("H=4 should have 8 paths, got %d", p.Paths())
	}
	if p.KeyBits() != 4000 {
		t.Errorf("H=4 key bits = %d, want 4000", p.KeyBits())
	}
	if paperParams(1, 8).Paths() != 1 {
		t.Error("H=1 should have a single path")
	}
}

func TestPathSuccessProbEq9(t *testing.T) {
	// Eq 9: S = e^{-(1/α)^β·H}; α=10, β=1, H=4 → e^{-0.4}
	p := paperParams(4, 8)
	want := math.Exp(-0.4)
	if got := p.PathSuccessProb(); math.Abs(got-want) > 1e-12 {
		t.Errorf("PathSuccessProb = %g, want %g", got, want)
	}
}

func TestReceiverSuccessEq10(t *testing.T) {
	// brute-force the binomial tail
	p := paperParams(4, 8)
	s1 := p.PathSuccessProb()
	var want float64
	for i := p.K; i <= p.Copies; i++ {
		want += choose(p.Copies, i) * math.Pow(s1, float64(i)) * math.Pow(1-s1, float64(p.Copies-i))
	}
	if got := p.ReceiverSuccess(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ReceiverSuccess = %g, brute %g", got, want)
	}
	// with α=10, β=1, H=4, n=128, k=8: S1≈0.67, mean successes ≈86 — the
	// receiver succeeds essentially always.
	if p.ReceiverSuccess() < 0.999 {
		t.Errorf("paper point should give near-certain receiver success, got %g", p.ReceiverSuccess())
	}
}

func choose(n, k int) float64 {
	res := 1.0
	for i := 0; i < k; i++ {
		res *= float64(n-i) / float64(k-i)
	}
	return res
}

func TestAdversaryBlockedByHeight(t *testing.T) {
	// Fig 8b: with H >= 8 the adversary's success probability collapses to
	// ~0 even at high redundancy (small k).
	for _, h := range []int{8, 10, 12} {
		p := paperParams(h, 8)
		if adv := p.AdversarySuccess(); adv > 1e-6 {
			t.Errorf("H=%d adversary success = %g, should be ~0", h, adv)
		}
	}
	// while the receiver still has a workable chance at moderate k
	p := paperParams(8, 8)
	if p.ReceiverSuccess() < 0.9 {
		t.Errorf("H=8 k=8 receiver success = %g, should remain high", p.ReceiverSuccess())
	}
}

func TestSuccessSpaceShrinksWithK(t *testing.T) {
	// Fig 8a: receiver success falls as k grows (less redundancy).
	prev := 2.0
	for _, k := range []int{1, 16, 32, 64, 100, 128} {
		p := paperParams(4, k)
		s := p.ReceiverSuccess()
		if s > prev+1e-12 {
			t.Fatalf("receiver success should fall with k, rose at k=%d", k)
		}
		prev = s
	}
}

func TestAdversaryFallsWithK(t *testing.T) {
	// Fig 8b: adversary success also falls with k, and faster.
	p1 := paperParams(3, 1)
	p8 := paperParams(3, 8)
	a1, a8 := p1.AdversarySuccess(), p8.AdversarySuccess()
	if a8 >= a1 {
		t.Errorf("adversary success should fall with k: k=1 %g, k=8 %g", a1, a8)
	}
	r1, r8 := p1.ReceiverSuccess(), p8.ReceiverSuccess()
	// adversaries fail faster than receivers as k grows (§6.4.1)
	if a8/math.Max(a1, 1e-300) > r8/r1 {
		t.Error("adversary should degrade faster with k than receiver")
	}
}

func TestHigherAlphaHelpsBoth(t *testing.T) {
	// Fig 9: with higher α both receiver and adversary succeed more.
	// Use a high threshold so receiver success is not saturated at 1.
	lo := Params{Dist: weibull.MustNew(5, 1), Height: 4, Copies: 128, K: 100}
	hi := Params{Dist: weibull.MustNew(40, 1), Height: 4, Copies: 128, K: 100}
	if hi.ReceiverSuccess() <= lo.ReceiverSuccess() {
		t.Error("higher α should help the receiver")
	}
	if hi.AdversarySuccess() < lo.AdversarySuccess() {
		t.Error("higher α should not hurt the adversary")
	}
}

func TestSuccessSpace(t *testing.T) {
	// §6.4.2: "when the tree height is 8 or more, the adversaries' success
	// probability reduces to zero" — H=8, k=8 is in the success space.
	p := paperParams(8, 8)
	if !(p.ReceiverSuccess() >= 0.99 && p.AdversarySuccess() <= 1e-6) {
		t.Errorf("H=8 k=8 should be in success space: recv=%g adv=%g",
			p.ReceiverSuccess(), p.AdversarySuccess())
	}
	// Low trees with high redundancy are reliable but insecure — the red
	// region of Fig 8b (our H=4, k=8 adversary success is ~0.85).
	weak := paperParams(4, 8)
	if weak.AdversarySuccess() <= 1e-3 {
		t.Errorf("H=4 k=8 should not be secure: adv=%g", weak.AdversarySuccess())
	}
}

func TestPaperLatencyEnergyPoints(t *testing.T) {
	p := paperParams(4, 8)
	if ms := p.RetrievalLatency().Ms(); math.Abs(ms-0.08512) > 1e-9 {
		t.Errorf("retrieval latency = %g ms, paper says 0.08512", ms)
	}
	if e := float64(p.RetrievalEnergy()); math.Abs(e-5.12e-18) > 1e-27 {
		t.Errorf("retrieval energy = %g J, paper says 5.12e-18", e)
	}
	if pads := p.PadsPerChip(1); pads < 4000 || pads > 5500 {
		t.Errorf("pads per 1mm² chip = %d, paper says ~4687", pads)
	}
}

func TestFabricateAndRetrieve(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 3, Copies: 32, K: 4}
	r := rng.New(11)
	pad, key, err := Fabricate(p, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(key)*8 < p.KeyBits() {
		t.Errorf("key too short: %d bytes", len(key))
	}
	got, stats, err := pad.Retrieve(2, nems.RoomTemp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Error("retrieved key differs from fabricated key")
	}
	if stats.LatencyNs <= 0 || stats.EnergyJ <= 0 {
		t.Error("stats should be positive")
	}
}

func TestWrongPathYieldsWrongKey(t *testing.T) {
	p := Params{Dist: weibull.MustNew(1000, 8), Height: 3, Copies: 16, K: 2} // durable devices
	r := rng.New(13)
	pad, key, err := Fabricate(p, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pad.Retrieve(3, nems.RoomTemp) // wrong path: decoy key
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, key) {
		t.Error("wrong path should yield a decoy, not the real key")
	}
}

func TestRetrieveValidation(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 3, Copies: 8, K: 2}
	r := rng.New(17)
	pad, _, err := Fabricate(p, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pad.Retrieve(99, nems.RoomTemp); err == nil {
		t.Error("out-of-range path should error")
	}
	if _, _, err := Fabricate(p, -1, r); err == nil {
		t.Error("negative path should error")
	}
	if _, _, err := Fabricate(Params{Dist: weibull.MustNew(10, 1), Height: 0, Copies: 8, K: 2}, 0, r); err == nil {
		t.Error("invalid params should error")
	}
}

func TestSecondRetrievalUsuallyFails(t *testing.T) {
	// One-time usage: the right leaf registers are destroyed by the first
	// retrieval, so a second retrieval of the same path must fail even if
	// switches survive.
	p := Params{Dist: weibull.MustNew(1000, 8), Height: 3, Copies: 8, K: 2} // durable switches
	r := rng.New(19)
	pad, _, err := Fabricate(p, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pad.Retrieve(1, nems.RoomTemp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pad.Retrieve(1, nems.RoomTemp); !errors.Is(err, ErrRetrievalFailed) {
		t.Errorf("second retrieval should fail (read-destructive leaves), got %v", err)
	}
}

func TestReceiverSuccessMatchesSimulation(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 32, K: 4}
	analytic := mathxTail(p)
	emp, lo, hi := montecarlo.Proportion(23, 800, func(r *rng.RNG) bool {
		pad, _, err := Fabricate(p, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = pad.Retrieve(3, nems.RoomTemp)
		return err == nil
	})
	_ = emp
	if analytic < lo-0.02 || analytic > hi+0.02 {
		t.Errorf("analytic receiver success %g outside MC interval [%g, %g]", analytic, lo, hi)
	}
}

func mathxTail(p Params) float64 { return p.ReceiverSuccess() }

func TestAdversarySuccessMatchesSimulation(t *testing.T) {
	// Use a parameter point where the adversary has non-negligible success
	// so the MC estimate is meaningful: H=2 (2 paths), k=2, n=16, α=10.
	p := Params{Dist: weibull.MustNew(10, 1), Height: 2, Copies: 16, K: 2}
	analytic := p.AdversarySuccess()
	emp, lo, hi := montecarlo.Proportion(29, 1500, func(r *rng.RNG) bool {
		pad, _, err := Fabricate(p, 1, r)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := pad.AdversaryTrial(1, nems.RoomTemp, r.Derive("adv"))
		return ok
	})
	_ = emp
	if analytic < lo-0.03 || analytic > hi+0.03 {
		t.Errorf("analytic adversary success %g outside MC interval [%g, %g]", analytic, lo, hi)
	}
}

// padsLeft returns how many messages the sender can still encrypt.
func padsLeft(b *Codebook) int { return len(b.keys) - b.next }

func TestMessagingRoundTrip(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 3, Copies: 32, K: 4}
	r := rng.New(31)
	chip, book, err := FabricateChip(p, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Pads() != 3 || padsLeft(book) != 3 {
		t.Error("chip/book sizing wrong")
	}
	plain := []byte("attack at dawn")
	msg, err := book.Encrypt(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(msg.Ciphertext, []byte("attack")) {
		t.Error("ciphertext leaks plaintext")
	}
	got, err := chip.Decrypt(msg, nems.RoomTemp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("decrypted %q", got)
	}
	if padsLeft(book) != 2 {
		t.Error("pad not consumed from book")
	}
}

func TestMessagingExhaustion(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 2, Copies: 16, K: 2}
	r := rng.New(37)
	_, book, err := FabricateChip(p, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := book.Encrypt([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := book.Encrypt([]byte("two")); !errors.Is(err, ErrPadExhausted) {
		t.Errorf("expected ErrPadExhausted, got %v", err)
	}
}

func TestMessageTooLong(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 2, Copies: 16, K: 2}
	r := rng.New(41)
	_, book, err := FabricateChip(p, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, p.KeyBits()) // bytes > bits/8
	if _, err := book.Encrypt(long); !errors.Is(err, ErrKeyTooShort) {
		t.Errorf("expected ErrKeyTooShort, got %v", err)
	}
}

func TestSenderKeyDestroyedAfterUse(t *testing.T) {
	p := Params{Dist: weibull.MustNew(10, 1), Height: 2, Copies: 16, K: 2}
	r := rng.New(43)
	_, book, err := FabricateChip(p, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	keyBefore := append([]byte(nil), book.keys[0]...)
	if _, err := book.Encrypt([]byte("msg")); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(book.keys[0], keyBefore) {
		t.Error("sender must zeroize the key after use (OTP rule)")
	}
	allZero := true
	for _, b := range book.keys[0] {
		if b != 0 {
			allZero = false
		}
	}
	if !allZero {
		t.Error("key not zeroized")
	}
}

func TestPlanChip(t *testing.T) {
	d := weibull.MustNew(10, 1)
	plan, err := PlanChip(d, 10, 100, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 100-byte messages fit in the security-floor height H=8 (1000 bytes)
	if plan.Params.Height != 8 {
		t.Errorf("height = %d, want security floor 8", plan.Params.Height)
	}
	if plan.MaxMessageBytes < 100 {
		t.Errorf("capacity %dB below requested 100B", plan.MaxMessageBytes)
	}
	if plan.AreaMm2 <= 0 {
		t.Error("area should be positive")
	}
	if plan.AdversarySucces > 1e-6 {
		t.Errorf("planned chip insecure: adv=%g", plan.AdversarySucces)
	}
	if plan.String() == "" {
		t.Error("empty String")
	}
	// big messages push the height above the floor
	big, err := PlanChip(d, 1, 2000, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if big.Params.Height != 16 {
		t.Errorf("2000B message should need H=16, got %d", big.Params.Height)
	}
	// validation
	if _, err := PlanChip(d, 0, 10, 64, 8); err == nil {
		t.Error("zero messages should error")
	}
	if _, err := PlanChip(d, 1, 0, 64, 8); err == nil {
		t.Error("zero size should error")
	}
	if _, err := PlanChip(d, 1, 10, 300, 8); err == nil {
		t.Error("invalid copies should error")
	}
}
