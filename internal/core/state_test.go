package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// stateTestDesign is a small design with encoding and several copies so
// state capture crosses copy boundaries.
func stateTestDesign(t *testing.T) dse.Design {
	t.Helper()
	d, err := dse.Explore(stateTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func stateTestSpec() dse.Spec {
	s := dse.Spec{LAB: 30, KFrac: 0.1, ContinuousT: true}
	s.Dist.Alpha = 6
	s.Dist.Beta = 8
	s.Criteria.MinWork = 0.99
	s.Criteria.MaxOverrun = 0.01
	return s
}

// transcript drives an architecture to lockout and returns the outcome
// sequence plus every recovered secret.
func transcript(t *testing.T, a *Architecture) (outcomes []AccessOutcome, secrets [][]byte) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		secret, err := a.Access(nems.RoomTemp)
		switch {
		case err == nil:
			outcomes = append(outcomes, AccessSuccess)
			secrets = append(secrets, secret)
		case errors.Is(err, ErrExhausted):
			outcomes = append(outcomes, AccessExhausted)
			return outcomes, secrets
		case errors.Is(err, ErrTransient):
			outcomes = append(outcomes, AccessTransient)
		case errors.Is(err, ErrDecodeFailed):
			outcomes = append(outcomes, AccessDecodeFailed)
		default:
			t.Fatalf("unexpected access error: %v", err)
		}
	}
	t.Fatal("architecture never locked out")
	return nil, nil
}

// TestStateRestoreRoundTrip checks the tentpole invariant: capture State
// mid-life, rebuild from the same (design, secret, seed), Restore, and the
// remaining transcript is bit-identical to the uninterrupted original.
func TestStateRestoreRoundTrip(t *testing.T) {
	design := stateTestDesign(t)
	secret := []byte("0123456789abcdef")
	const seed = 42

	orig, err := Build(design, secret, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	// Consume 17 accesses mid-traffic, including temperature variation so
	// fractional wear acceleration is exercised.
	for i := 0; i < 17; i++ {
		env := nems.RoomTemp
		if i%5 == 4 {
			env = nems.Environment{TempCelsius: 200}
		}
		_, err := orig.Access(env)
		if err != nil && !errors.Is(err, ErrTransient) && !errors.Is(err, ErrDecodeFailed) {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	st := orig.State()

	// The state must survive a JSON round trip unchanged (it is persisted
	// as JSON inside WAL snapshots).
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, decoded) {
		t.Fatal("State does not round-trip through JSON")
	}

	restored, err := Build(design, secret, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.State(), st) {
		t.Fatal("restored state differs from captured state")
	}
	gotTotal, gotOK := restored.Accesses()
	wantTotal, wantOK := orig.Accesses()
	if gotTotal != wantTotal || gotOK != wantOK {
		t.Fatalf("restored counters (%d, %d) != original (%d, %d)", gotTotal, gotOK, wantTotal, wantOK)
	}

	// From here on both must play out identically, byte for byte.
	wantOutcomes, wantSecrets := transcript(t, orig)
	gotOutcomes, gotSecrets := transcript(t, restored)
	if !reflect.DeepEqual(gotOutcomes, wantOutcomes) {
		t.Fatalf("post-restore outcomes diverge:\n got %v\nwant %v", gotOutcomes, wantOutcomes)
	}
	if !reflect.DeepEqual(gotSecrets, wantSecrets) {
		t.Fatal("post-restore secrets diverge")
	}
}

// TestRestoreRejectsWrongShape checks the validation errors.
func TestRestoreRejectsWrongShape(t *testing.T) {
	design := stateTestDesign(t)
	secret := []byte("0123456789abcdef")
	a, err := Build(design, secret, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	st := a.State()

	bad := st
	bad.Copies = st.Copies[:len(st.Copies)-1]
	if err := a.Restore(bad); err == nil {
		t.Error("Restore accepted a state with a missing copy")
	}

	bad = st
	bad.Copies = make([][]nems.State, len(st.Copies))
	copy(bad.Copies, st.Copies)
	bad.Copies[0] = st.Copies[0][:1]
	if err := a.Restore(bad); err == nil {
		t.Error("Restore accepted a state with missing switches")
	}

	bad = st
	bad.CurrentCopy = len(st.Copies) + 1
	if err := a.Restore(bad); err == nil {
		t.Error("Restore accepted an out-of-range current copy")
	}

	bad = st
	bad.TotalAttempts = 1
	bad.Successful = 2
	if err := a.Restore(bad); err == nil {
		t.Error("Restore accepted successes > attempts")
	}
}

// TestRestoreRejectsUnreachableSwitchState pins Restore's switch-state
// check: a state no actuation history produces (a failure cycle other
// than the final count, or a count with the top bit set) is refused, and
// the refusal leaves the architecture byte-identical even when the rest
// of the state, earlier copies included, would have restored.
func TestRestoreRejectsUnreachableSwitchState(t *testing.T) {
	design := stateTestDesign(t)
	a, err := Build(design, []byte("0123456789abcdef"), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		_, _ = a.Access(nems.RoomTemp)
	}
	before, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, unreachable := range []nems.State{
		{FailCycle: 3},                       // failed without an actuation
		{Wear: 5, Actuated: 5, FailCycle: 4}, // counted an actuation after failing
		{Actuated: 1 << 63},                  // a count that reaches the failure mark
	} {
		st := a.State()
		st.TotalAttempts, st.Successful = 100, 50
		st.Copies[0][0] = nems.State{Wear: 7, Actuated: 7, FailCycle: 7}
		last := st.Copies[len(st.Copies)-1]
		last[len(last)-1] = unreachable
		if err := a.Restore(st); err == nil {
			t.Errorf("Restore accepted switch state %+v", unreachable)
		}
		after, err := json.Marshal(a.State())
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Fatalf("a refused Restore of %+v changed the architecture", unreachable)
		}
	}
}

// TestOutcomeString pins the wire labels used by the events endpoint.
func TestOutcomeString(t *testing.T) {
	want := map[AccessOutcome]string{
		AccessSuccess:      "success",
		AccessTransient:    "transient",
		AccessExhausted:    "exhausted",
		AccessDecodeFailed: "decode_failed",
		AccessOutcome(99):  "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("AccessOutcome(%d).String() = %q, want %q", int(o), o.String(), s)
		}
	}
}
