// Package gf256 implements arithmetic in the finite field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the field used by
// the Shamir secret-sharing package.
//
// Multiplication and division go through exp/log tables built at package
// init; all operations are constant-time-ish table lookups (we make no
// side-channel claims — this is a simulator, not production crypto).
package gf256

import "fmt"

// Poly is the primitive reduction polynomial used by this field.
const Poly = 0x11D

var (
	expTable [512]byte // doubled so Mul can skip a mod 255
	logTable [256]byte
	// mulTable[c] is the full multiplication row of the constant c:
	// mulTable[c][a] = c·a. 64 KiB once at init buys MulSliceAdd a single
	// lookup per byte instead of two log lookups plus an exp lookup.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		row := &mulTable[c]
		lc := int(logTable[c])
		for a := 1; a < 256; a++ {
			row[a] = expTable[lc+int(logTable[a])]
		}
	}
}

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). It panics on division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		//lemonvet:allow panic division by zero is a caller bug, like integer /0
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// checkDistinct validates the LagrangeCoeffs preconditions: pairLen
// coefficients paired with the xs, at least one point, and all xs
// distinct. The pairwise scan is O(k²) but allocation-free;
// k ≤ 255 in this field, so it beats building a seen-set.
func checkDistinct(xs []byte, pairLen int) error {
	if len(xs) != pairLen {
		return fmt.Errorf("gf256: mismatched point slices (%d vs %d)", len(xs), pairLen)
	}
	if len(xs) == 0 {
		return fmt.Errorf("gf256: no points to interpolate")
	}
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return fmt.Errorf("gf256: duplicate x coordinate %d", xs[i])
			}
		}
	}
	return nil
}
