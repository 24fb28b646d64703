package gf256

import "encoding/binary"

// This file is the slice-at-a-time kernel layer: the same field arithmetic
// as Mul and XOR, applied to whole []byte operands through precomputed
// multiplication rows. Field operations are exact (no rounding), so any
// algebraic regrouping of the scalar loops is bit-identical to the scalar
// path — the property the exhaustive kernel tests in slice_test.go and the
// lemonbench checksum gates both pin.
//
// Aliasing contract: dst may be the same slice as src (in-place update),
// but must not otherwise overlap it. None of the kernels allocate.

// addSlice adds src into dst elementwise: dst[i] ^= src[i]; the slices
// have equal length. Addition in GF(2^8) is XOR, so the kernel batches 8
// bytes per step through 64-bit words — bitwise XOR is endianness- and
// grouping-independent, so the word path is bit-identical to the byte
// path.
func addSlice(dst, src []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// MulSliceAdd multiply-accumulates a constant into dst: dst[i] ^= c·src[i]
// for every i. c = 0 is a no-op; c = 1 degenerates to the word-batched
// addSlice; every other constant walks its precomputed multiplication row
// (one table lookup per byte).
func MulSliceAdd(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		//lemonvet:allow panic mismatched kernel operand lengths are a caller bug, like out-of-range indexing
		panic("gf256: MulSliceAdd length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		addSlice(dst, src)
		return
	}
	row := &mulTable[c]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// LagrangeCoeffs fills coeffs[i] with the Lagrange basis scalar
//
//	L_i(x) = Π_{j≠i} (x ⊕ xs[j]) / (xs[i] ⊕ xs[j])
//
// so that the degree-(k-1) polynomial through (xs[i], ys[i]) evaluates at
// x as Σ ys[i]·coeffs[i]. The basis is accumulated directly in scalars —
// no intermediate basis polynomials — which is what lets shamir's
// CombineInto reconstruct whole share slices with k MulSliceAdd passes.
// The xs must be distinct and len(coeffs) must equal len(xs).
func LagrangeCoeffs(xs []byte, x byte, coeffs []byte) error {
	if err := checkDistinct(xs, len(coeffs)); err != nil {
		return err
	}
	for i := range xs {
		num, den := byte(1), byte(1)
		for j := range xs {
			if j == i {
				continue
			}
			num = Mul(num, x^xs[j])
			den = Mul(den, xs[i]^xs[j])
		}
		coeffs[i] = Div(num, den)
	}
	return nil
}
