package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// runMaintenance applies pending remap plans the way a durable caller
// would: Retire the worn switches, then install the assignment. Tests
// drive it explicitly after wear-consuming ops.
func runMaintenance(t *testing.T, a *Architecture) int {
	t.Helper()
	applied := 0
	for {
		plan, ok := a.PendingRemap()
		if !ok {
			return applied
		}
		for _, p := range plan.Retire {
			if err := a.Retire(plan.Copy, p); err != nil {
				t.Fatalf("Retire(%d, %d): %v", plan.Copy, p, err)
			}
		}
		if err := a.ApplyRemap(plan.Copy, plan.Assign); err != nil {
			t.Fatalf("ApplyRemap(%d, %v): %v", plan.Copy, plan.Assign, err)
		}
		applied++
	}
}

func TestBuildLeveledAccess(t *testing.T) {
	design := smallDesign(t, 50, 0.10)
	secret := []byte("storage decryption key 0123456789abcdef")
	lv := Leveling{Spares: design.N / 2, Epoch: 10}
	a, err := BuildLeveled(design, secret, lv, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Leveling(); !ok || got != lv {
		t.Fatalf("Leveling() = %v, %v; want %v, true", got, ok, lv)
	}
	if want := (design.N + lv.Spares) * design.Copies; a.TotalDevices() != want {
		t.Errorf("TotalDevices = %d, want %d (spares included)", a.TotalDevices(), want)
	}
	succ := 0
	for i := 0; i < 50; i++ {
		got, err := a.Access(nems.RoomTemp)
		if err == nil {
			if !bytes.Equal(got, secret) {
				t.Fatalf("access %d returned wrong secret %q", i, got)
			}
			succ++
		}
		runMaintenance(t, a)
	}
	if succ < 45 {
		t.Errorf("only %d/50 accesses succeeded within the guaranteed window", succ)
	}
}

func TestStressValidation(t *testing.T) {
	design := smallDesign(t, 30, 0.10)
	a, err := Build(design, []byte("s"), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stress(nems.RoomTemp, []int{0}, 0); err == nil {
		t.Error("Stress with 0 pulses accepted")
	}
	if _, err := a.Stress(nems.RoomTemp, nil, 1); err == nil {
		t.Error("Stress with no targets accepted")
	}
	if _, err := a.Stress(nems.RoomTemp, []int{design.N}, 1); err == nil {
		t.Error("Stress with out-of-range index accepted")
	}
	if _, err := a.Stress(nems.RoomTemp, []int{-1}, 1); err == nil {
		t.Error("Stress with negative index accepted")
	}
	if got := a.Stressed(); got != 0 {
		t.Errorf("rejected stress consumed budget: Stressed = %d", got)
	}
}

// TestStressNeverRevealsAndNeverAdvances pins the confidentiality shape of
// the stress path: it returns conduction counts only, and a copy killed by
// stress is not skipped until a real access observes it.
func TestStressNeverRevealsAndNeverAdvances(t *testing.T) {
	design := smallDesign(t, 30, 0.10)
	a, err := Build(design, []byte("attack-target-secret"), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, design.N)
	for i := range targets {
		targets[i] = i
	}
	// Burn every copy down with hot stress pulses. Stress only reaches the
	// active copy, so a real access has to observe each corpse and move on
	// before the attacker can touch the next copy.
	hot := nems.Environment{TempCelsius: 400}
	var lastErr error
	for burned := 0; burned < design.Copies; burned++ {
		before := a.CurrentCopy()
		for i := 0; i < 20000; i++ {
			n, err := a.Stress(hot, targets, 1)
			if err != nil {
				t.Fatalf("stress: %v", err)
			}
			if n == 0 {
				break
			}
		}
		if a.CurrentCopy() != before {
			t.Fatalf("stress advanced the active copy from %d to %d", before, a.CurrentCopy())
		}
		_, lastErr = a.Access(nems.RoomTemp)
	}
	if a.Stressed() == 0 {
		t.Fatal("Stressed counter did not advance")
	}
	if !errors.Is(lastErr, ErrExhausted) {
		if _, err := a.Access(nems.RoomTemp); !errors.Is(err, ErrExhausted) {
			t.Fatalf("architecture not exhausted after stress killed every copy: %v", err)
		}
	}
}

// TestLeveledSurvivesTargetedAttack is the core defense claim: under a
// targeted stress pattern that burns out an unleveled architecture's
// victim switches, the leveled variant rotates the heat across spares and
// keeps serving strictly longer.
func TestLeveledSurvivesTargetedAttack(t *testing.T) {
	design := smallDesign(t, 30, 0.10)
	secret := []byte("the same secret for both variants")
	// Attack the first k share indices — the minimum set whose loss kills
	// an access — with hot pulses between legitimate accesses.
	targets := make([]int, design.K)
	for i := range targets {
		targets[i] = i
	}
	hot := nems.Environment{TempCelsius: 400}

	survive := func(a *Architecture) (okAccesses int) {
		for i := 0; i < 5000; i++ {
			if _, err := a.Stress(hot, targets, 2); errors.Is(err, ErrExhausted) {
				return okAccesses
			}
			runMaintenance(t, a)
			got, err := a.Access(nems.RoomTemp)
			runMaintenance(t, a)
			if errors.Is(err, ErrExhausted) {
				return okAccesses
			}
			if err == nil {
				if !bytes.Equal(got, secret) {
					t.Fatalf("recovered wrong secret under attack")
				}
				okAccesses++
			}
		}
		return okAccesses
	}

	plain, err := Build(design, secret, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	leveled, err := BuildLeveled(design, secret, Leveling{Spares: design.N, Epoch: 4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	plainOK := survive(plain)
	leveledOK := survive(leveled)
	if leveledOK <= plainOK {
		t.Fatalf("leveled served %d accesses under attack, unleveled %d; want strictly more", leveledOK, plainOK)
	}
	if ps, ls := plain.WearSkew(), leveled.WearSkew(); ls >= ps {
		t.Fatalf("leveled wear skew %v not tighter than unleveled %v", ls, ps)
	}
	if leveled.Remaps() == 0 {
		t.Fatal("defense never rotated")
	}
}

// TestLeveledStateRoundTrip pins the leveled State/Restore contract:
// capture → rebuild → restore reproduces identical bytes, including remap
// tables and retirements, and the restored architecture behaves
// identically.
func TestLeveledStateRoundTrip(t *testing.T) {
	design := smallDesign(t, 30, 0.10)
	secret := []byte("round-trip secret")
	lv := Leveling{Spares: 4, Epoch: 3}
	a, err := BuildLeveled(design, secret, lv, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, _ = a.Stress(nems.Environment{TempCelsius: 400}, []int{0, 1}, 1)
		runMaintenance(t, a)
		_, _ = a.Access(nems.RoomTemp)
		runMaintenance(t, a)
	}
	st := a.State()
	if st.Assign == nil || st.Retired == nil {
		t.Fatal("leveled state missing remap payload")
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}

	b, err := BuildLeveled(design, secret, lv, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	blob2, err := json.Marshal(b.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("restored state diverged:\n%s\nvs\n%s", blob, blob2)
	}
	// Both must behave identically from here on.
	for i := 0; i < 10; i++ {
		s1, e1 := a.Access(nems.RoomTemp)
		s2, e2 := b.Access(nems.RoomTemp)
		if !bytes.Equal(s1, s2) || !errors.Is(e1, e2) && !errors.Is(e2, e1) && (e1 != nil || e2 != nil) {
			t.Fatalf("access %d diverged: (%q, %v) vs (%q, %v)", i, s1, e1, s2, e2)
		}
	}
}

func TestRestoreRejectsVariantMismatch(t *testing.T) {
	design := smallDesign(t, 30, 0.10)
	secret := []byte("mismatch")
	lv := Leveling{Spares: 2, Epoch: 3}

	leveled, err := BuildLeveled(design, secret, lv, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(design, secret, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(leveled.State()); err == nil {
		t.Error("unleveled architecture accepted a leveled state")
	}

	// Corrupt the remap payload: wrong width, duplicate target, bad retire.
	fresh := func() *Architecture {
		a, err := BuildLeveled(design, secret, lv, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	good := leveled.State()
	bad := good
	bad.Assign = append([][]int{}, good.Assign...)
	bad.Assign[0] = []int{0}
	if err := fresh().Restore(bad); err == nil {
		t.Error("Restore accepted a truncated remap table")
	}
	bad = good
	bad.Retired = append([][]int{}, good.Retired...)
	bad.Retired[0] = []int{design.N + lv.Spares}
	if err := fresh().Restore(bad); err == nil {
		t.Error("Restore accepted an out-of-range retirement")
	}
	bad = good
	bad.Assign = nil
	bad.Retired = nil
	if err := fresh().Restore(bad); err == nil {
		t.Error("leveled architecture accepted a state without remap payload")
	}
}

// TestUnleveledStateUnchangedByStressless pins serialization backward
// compatibility: an unleveled architecture that has never been stressed
// marshals exactly as before leveling existed (no new keys).
func TestUnleveledStateUnchangedByStressless(t *testing.T) {
	design := smallDesign(t, 30, 0.10)
	a, err := Build(design, []byte("compat"), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = a.Access(nems.RoomTemp)
	blob, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"stressed", "ops_since_remap", "remaps", "assign", "retired"} {
		if bytes.Contains(blob, []byte(`"`+key+`"`)) {
			t.Errorf("unleveled state leaked new key %q: %s", key, blob)
		}
	}
}
