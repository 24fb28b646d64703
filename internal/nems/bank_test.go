package nems

import (
	"math"
	"testing"
)

// slotWorking reports whether logical slot i's mapped switch can conduct.
func slotWorking(b *Bank, i int) bool { return b.phys[b.assign[i]].Working() }

// TestWearoutAccelerationBoundaries pins the acceleration factor at the
// exact specification corners: −40 °C and 150 °C are inclusive thresholds
// (the spec says "at or beyond"), 400 °C switches to the melting regime,
// and every just-inside temperature stays at the nominal 1×.
func TestWearoutAccelerationBoundaries(t *testing.T) {
	cases := []struct {
		temp float64
		want float64
	}{
		{-40, 2},                    // exactly the freezing threshold: accelerated
		{math.Nextafter(-40, 0), 1}, // just above freezing threshold: nominal
		{-39.999, 1},                // comfortably above: nominal
		{-273.15, 2},                // absolute zero still only fractures
		{25, 1},                     // room temperature
		{math.Nextafter(150, 0), 1}, // just below the hot threshold: nominal
		{149.999, 1},                // comfortably below: nominal
		{150, 2},                    // exactly the hot threshold: accelerated
		{math.Nextafter(400, 0), 2}, // just below melting: still the 2× regime
		{399.999, 2},                // comfortably below melting: 2×
		{400, 10},                   // exactly the melting threshold: 10×
		{500, 10},                   // the paper's cited SiC melting point
		{math.Inf(1), 10},           // no temperature exceeds the melting regime
	}
	for _, tc := range cases {
		if got := (Environment{TempCelsius: tc.temp}).Acceleration(); got != tc.want {
			t.Errorf("Acceleration(%v °C) = %v, want %v", tc.temp, got, tc.want)
		}
	}
}

// TestWearoutAccelerationNeverBelowOne sweeps the temperature axis and
// pins the security-critical direction of §2.1: no environment ever slows
// wearout, so an attacker cannot stretch the usage bound by refrigeration
// or any other environmental control.
func TestWearoutAccelerationNeverBelowOne(t *testing.T) {
	for temp := -300.0; temp <= 600.0; temp += 0.25 {
		if got := (Environment{TempCelsius: temp}).Acceleration(); got < 1 {
			t.Fatalf("Acceleration(%v °C) = %v < 1: environment extended device life", temp, got)
		}
	}
	for _, temp := range []float64{math.Inf(-1), math.Inf(1)} {
		if got := (Environment{TempCelsius: temp}).Acceleration(); got < 1 {
			t.Fatalf("Acceleration(%v) = %v < 1", temp, got)
		}
	}
}

// deterministicBank builds a bank of deterministic-lifetime switches:
// n logical slots, spares extra physicals, each with the given lifetime.
func deterministicBank(t *testing.T, n, spares int, lifetime uint64) *Bank {
	t.Helper()
	phys := make([]Switch, n+spares)
	for i := range phys {
		phys[i] = *FabricateDeterministic(lifetime)
	}
	b, err := NewBank(phys, n)
	if err != nil {
		t.Fatalf("NewBank: %v", err)
	}
	return b
}

func TestBankIdentityAssignment(t *testing.T) {
	b := deterministicBank(t, 3, 2, 10)
	want := []int{0, 1, 2}
	for i, p := range b.Assign() {
		if p != want[i] {
			t.Fatalf("initial assign = %v, want identity %v", b.Assign(), want)
		}
	}
	if got := b.SparesRemaining(); got != 2 {
		t.Fatalf("SparesRemaining = %d, want 2", got)
	}
	if got, want := b.Slots(), 3; got != want {
		t.Fatalf("Slots = %d, want %d", got, want)
	}
	if got, want := b.Physical(), 5; got != want {
		t.Fatalf("Physical = %d, want %d", got, want)
	}
}

func TestBankSetAssignValidation(t *testing.T) {
	b := deterministicBank(t, 3, 1, 10)
	for _, bad := range [][]int{
		{0, 1},       // wrong width
		{0, 1, 2, 3}, // wrong width
		{0, 1, 4},    // out of range
		{0, 1, -1},   // negative
		{0, 1, 1},    // duplicate
	} {
		if err := b.SetAssign(bad); err == nil {
			t.Errorf("SetAssign(%v) accepted an invalid table", bad)
		}
	}
	if err := b.SetAssign([]int{3, 1, 2}); err != nil {
		t.Fatalf("SetAssign(valid): %v", err)
	}
	if got := b.Assign(); got[0] != 3 {
		t.Fatalf("assign after SetAssign = %v, want slot 0 → 3", got)
	}
	// A dead target is legal (replay must reinstall any recorded table).
	dead := deterministicBank(t, 2, 1, 0)
	_ = dead.Actuate(0, RoomTemp.Acceleration()) // kills phys 0 (lifetime 0)
	if err := dead.SetAssign([]int{0, 1}); err != nil {
		t.Fatalf("SetAssign onto a dead switch must be legal for replay: %v", err)
	}
}

func TestBankPlanRemapRotatesOntoLeastWorn(t *testing.T) {
	b := deterministicBank(t, 2, 2, 100)
	// Age slot 0 hard (10 cycles) and slot 1 lightly (2 cycles); the two
	// spares are fresh. The plan must move service onto the fresh spares.
	for i := 0; i < 10; i++ {
		if err := b.Actuate(0, RoomTemp.Acceleration()); err != nil {
			t.Fatalf("actuate: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := b.Actuate(1, RoomTemp.Acceleration()); err != nil {
			t.Fatalf("actuate: %v", err)
		}
	}
	assign, retire := b.PlanRemap()
	if len(retire) != 0 {
		t.Fatalf("nothing has failed, retire = %v", retire)
	}
	if assign[0] != 2 || assign[1] != 3 {
		t.Fatalf("plan = %v, want fresh spares [2 3]", assign)
	}
	if err := b.SetAssign(assign); err != nil {
		t.Fatalf("SetAssign(plan): %v", err)
	}
	if got := b.WearSkew(); got != 10 {
		t.Fatalf("WearSkew = %v, want 10 (max 10, min 0)", got)
	}
}

func TestBankRetireSwapsSpareUnderSlot(t *testing.T) {
	b := deterministicBank(t, 2, 1, 1)
	// Kill slot 0's switch: one successful actuation then failure.
	_ = b.Actuate(0, RoomTemp.Acceleration())
	_ = b.Actuate(0, RoomTemp.Acceleration())
	if slotWorking(b, 0) {
		t.Fatal("slot 0 should be dead")
	}
	assign, retire := b.PlanRemap()
	if len(retire) != 1 || retire[0] != 0 {
		t.Fatalf("retire = %v, want [0]", retire)
	}
	if err := b.Retire(retire[0]); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if err := b.SetAssign(assign); err != nil {
		t.Fatalf("SetAssign: %v", err)
	}
	// The spare (phys 2) must now serve a slot; the dead switch is out.
	for _, p := range b.Assign() {
		if p == 0 {
			t.Fatalf("retired switch still in service: assign = %v", b.Assign())
		}
	}
	if !slotWorking(b, 0) || !slotWorking(b, 1) {
		t.Fatalf("slots should be working after rotation: %v", b.Assign())
	}
	if got := b.SparesRemaining(); got != 0 {
		t.Fatalf("SparesRemaining = %d, want 0 after the spare entered service", got)
	}
	if !b.Retired(0) {
		t.Fatal("Retired(0) = false after Retire(0)")
	}
	// Retire is idempotent (WAL replay may apply a record twice across
	// recover-restart cycles).
	if err := b.Retire(0); err != nil {
		t.Fatalf("second Retire: %v", err)
	}
}

func TestBankPlanPadsWhenPoolExhausted(t *testing.T) {
	b := deterministicBank(t, 2, 0, 0)
	// Lifetime 0: first actuation kills each switch.
	_ = b.Actuate(0, RoomTemp.Acceleration())
	_ = b.Actuate(1, RoomTemp.Acceleration())
	assign, retire := b.PlanRemap()
	if len(retire) != 2 {
		t.Fatalf("retire = %v, want both switches", retire)
	}
	if len(assign) != 2 {
		t.Fatalf("plan must still fill every slot, got %v", assign)
	}
	if err := b.SetAssign(assign); err != nil {
		t.Fatalf("SetAssign(padded plan): %v", err)
	}
	if got := b.SparesRemaining(); got != 0 {
		t.Fatalf("SparesRemaining = %d on an exhausted pool", got)
	}
}

func TestWearSkewOfUnleveled(t *testing.T) {
	switches := []Switch{*FabricateDeterministic(100), *FabricateDeterministic(100)}
	for i := 0; i < 7; i++ {
		_ = switches[0].Actuate(RoomTemp)
	}
	if got := WearSkewOf(switches); got != 7 {
		t.Fatalf("WearSkewOf = %v, want 7", got)
	}
	if got := WearSkewOf(nil); got != 0 {
		t.Fatalf("WearSkewOf(nil) = %v, want 0", got)
	}
}
