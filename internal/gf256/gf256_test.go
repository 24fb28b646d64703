package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Div(1, byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
		if Div(byte(a), byte(a)) != 1 {
			t.Fatalf("a/a != 1 for a=%d", a)
		}
	}
	if Div(0, 5) != 0 {
		t.Error("0/b should be 0")
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero should panic")
		}
	}()
	Div(3, 0)
}

func TestMulByBruteForce(t *testing.T) {
	// Carry-less multiply then reduce by the field polynomial: the ground
	// truth for the table-driven Mul.
	ref := func(a, b byte) byte {
		var p uint16
		aa, bb := uint16(a), uint16(b)
		for i := 0; i < 8; i++ {
			if bb&1 != 0 {
				p ^= aa
			}
			bb >>= 1
			aa <<= 1
			if aa&0x100 != 0 {
				aa ^= Poly
			}
		}
		return byte(p)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if Mul(byte(a), byte(b)) != ref(byte(a), byte(b)) {
				t.Fatalf("Mul(%d,%d) mismatch with reference", a, b)
			}
		}
	}
}

// TestExpLogRoundTrip pins the tables Mul and Div are built on: the exp
// table inverts the log table, and its doubled half repeats the first.
func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if expTable[logTable[a]] != byte(a) {
			t.Fatalf("exp(log(%d)) != %d", a, a)
		}
	}
	for i := 255; i < len(expTable); i++ {
		if expTable[i] != expTable[i-255] {
			t.Fatalf("expTable[%d] does not repeat expTable[%d]", i, i-255)
		}
	}
}
