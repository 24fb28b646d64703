package gf16

import (
	"testing"

	"lemonade/internal/rng"
)

// GF(2^16) is too large for exhaustive pair sweeps (2^32 cases), so the
// unary laws run exhaustively over all 65 535 nonzero elements and the
// binary/ternary laws run over seeded pseudo-random samples — same
// deterministic rng the rest of the module uses, so a failure is a
// stable repro, not a flake.

func TestPropertyInvExhaustive(t *testing.T) {
	for a := 1; a <= Order; a++ {
		x := uint16(a)
		inv := Div(1, x)
		if inv == 0 || Mul(x, inv) != 1 {
			t.Fatalf("Div(1, %d) = %d is not a multiplicative inverse", a, inv)
		}
		if Div(x, x) != 1 {
			t.Fatalf("Div(%d, %d) != 1", a, a)
		}
		if Mul(x, 1) != x {
			t.Fatalf("1 is not the multiplicative identity for %d", a)
		}
		if x^x != 0 {
			t.Fatalf("%d is not its own additive inverse (char 2)", a)
		}
	}
}

func TestPropertyFieldLawsRandomized(t *testing.T) {
	r := rng.New(0x16f16)
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	for i := 0; i < n; i++ {
		a := uint16(r.Intn(1 << 16))
		b := uint16(r.Intn(1 << 16))
		c := uint16(r.Intn(1 << 16))
		if Mul(a, b) != Mul(b, a) {
			t.Fatalf("Mul not commutative at (%d, %d)", a, b)
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			t.Fatalf("Mul not associative at (%d, %d, %d)", a, b, c)
		}
		if Mul(a, b^c) != Mul(a, b)^Mul(a, c) {
			t.Fatalf("distributivity fails at (%d, %d, %d)", a, b, c)
		}
		if b != 0 && Mul(Div(a, b), b) != a {
			t.Fatalf("Div(%d, %d)·%d != %d", a, b, b, a)
		}
	}
}

// TestPropertyInterpolateRoundTrip: a random degree-(k-1) polynomial
// evaluated at k distinct points must interpolate back exactly through
// the Lagrange basis at x = 0 — the identity wide Shamir
// reconstruction rests on. Every tenth trial takes k past 32, onto
// checkDistinct's bitset path and the wide thresholds Wide serves.
func TestPropertyInterpolateRoundTrip(t *testing.T) {
	r := rng.New(0x1611)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		if trial%10 == 9 {
			k = 33 + r.Intn(400)
		}
		p := make([]uint16, k)
		for i := range p {
			p[i] = uint16(r.Intn(1 << 16))
		}
		// k distinct nonzero evaluation points via a partial permutation.
		xs := make([]uint16, k)
		for i, v := range r.Perm(Order)[:k] {
			xs[i] = uint16(v + 1)
		}
		coeffs := make([]uint16, k)
		if err := LagrangeCoeffs(xs, coeffs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var got uint16
		for i, x := range xs {
			got ^= Mul(evalPoly(p, x), coeffs[i])
		}
		if got != p[0] {
			t.Fatalf("trial %d: interpolated constant term %d, want %d", trial, got, p[0])
		}
	}
}
