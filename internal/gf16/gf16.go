// Package gf16 implements arithmetic in GF(2^16) with the primitive
// polynomial x^16 + x^12 + x^3 + x + 1 (0x1100B).
//
// The connection designs at low β need parallel structures with thousands
// of devices per copy; Shamir sharing over GF(2^8) caps out at 255 shares.
// This field supports up to 65,535 shares (see package shamir16).
package gf16

import "fmt"

// Poly is the primitive reduction polynomial.
const Poly = 0x1100B

// Order is the multiplicative group order.
const Order = 1<<16 - 1

var (
	expTable [2 * Order]uint16
	logTable [1 << 16]uint16
)

func init() {
	x := uint32(1)
	for i := 0; i < Order; i++ {
		expTable[i] = uint16(x)
		logTable[x] = uint16(i)
		x <<= 1
		if x&0x10000 != 0 {
			x ^= Poly
		}
	}
	for i := Order; i < 2*Order; i++ {
		expTable[i] = expTable[i-Order]
	}
}

// Mul returns a·b.
func Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b; it panics on division by zero.
func Div(a, b uint16) uint16 {
	if b == 0 {
		//lemonvet:allow panic division by zero is a caller bug, like integer /0
		panic("gf16: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+Order-int(logTable[b])]
}

// checkDistinct validates the LagrangeCoeffs preconditions without
// allocating. Small point sets use a pairwise scan; large ones (shamir16
// thresholds run to thousands of shares) switch to a stack bitset over
// the 2^16 possible coordinates, trading an 8 KiB stack clear for O(k)
// instead of O(k²).
func checkDistinct(xs []uint16, pairLen int) error {
	if len(xs) != pairLen {
		return fmt.Errorf("gf16: mismatched point slices (%d vs %d)", len(xs), pairLen)
	}
	if len(xs) == 0 {
		return fmt.Errorf("gf16: no points to interpolate")
	}
	if len(xs) <= 32 {
		for i := 0; i < len(xs); i++ {
			for j := i + 1; j < len(xs); j++ {
				if xs[i] == xs[j] {
					return fmt.Errorf("gf16: duplicate x coordinate %d", xs[i])
				}
			}
		}
		return nil
	}
	var seen [1 << 16 / 8]byte
	for _, v := range xs {
		bit := byte(1) << (v & 7)
		if seen[v>>3]&bit != 0 {
			return fmt.Errorf("gf16: duplicate x coordinate %d", v)
		}
		seen[v>>3] |= bit
	}
	return nil
}
