package gf16

import (
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	comm := func(a, b uint16) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error("commutativity:", err)
	}
	assoc := func(a, b, c uint16) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error("associativity:", err)
	}
	dist := func(a, b, c uint16) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(dist, nil); err != nil {
		t.Error("distributivity:", err)
	}
}

func TestIdentityAndZero(t *testing.T) {
	for _, a := range []uint16{0, 1, 2, 255, 256, 40000, 65535} {
		if Mul(a, 1) != a {
			t.Errorf("a*1 != a for %d", a)
		}
		if Mul(a, 0) != 0 {
			t.Errorf("a*0 != 0 for %d", a)
		}
		if a^a != 0 {
			t.Errorf("a+a != 0 for %d", a)
		}
	}
}

func TestInverses(t *testing.T) {
	f := func(a uint16) bool {
		if a == 0 {
			return true
		}
		return Mul(a, Div(1, a)) == 1 && Div(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// exhaustive spot-band around table edges
	for a := uint16(1); a < 300; a++ {
		if Mul(a, Div(1, a)) != 1 {
			t.Fatalf("inverse broken at %d", a)
		}
	}
	if Div(0, 7) != 0 {
		t.Error("0/b should be 0")
	}
}

func TestDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero should panic")
		}
	}()
	Div(1, 0)
}

func TestMulMatchesCarrylessReference(t *testing.T) {
	ref := func(a, b uint16) uint16 {
		var p uint32
		aa, bb := uint32(a), uint32(b)
		for i := 0; i < 16; i++ {
			if bb&1 != 0 {
				p ^= aa
			}
			bb >>= 1
			aa <<= 1
			if aa&0x10000 != 0 {
				aa ^= Poly
			}
		}
		return uint16(p)
	}
	f := func(a, b uint16) bool { return Mul(a, b) == ref(a, b) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
