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

// MulPowersAdd adds Σ_j x^(j+1)·row_j into dst, where rows holds rows
// row_0, row_1, … of len(dst) elements back to back: shamir's per-share
// evaluation of every secret byte's polynomial, one MulSliceAdd per row.
func MulPowersAdd(dst, rows []byte, x byte) {
	pw := x
	for n := len(dst); n > 0 && len(rows) > 0; rows = rows[n:] {
		MulSliceAdd(dst, rows[:n], pw)
		pw = Mul(pw, x)
	}
}

// LagrangeCoeffs fills coeffs[i] with the Lagrange basis scalar at 0,
//
//	L_i(0) = Π_{j≠i} xs[j] / (xs[i] ⊕ xs[j])
//
// so that the degree-(k-1) polynomial through (xs[i], ys[i]) has constant
// term Σ ys[i]·coeffs[i] — the secret, for Shamir. The basis is
// accumulated directly in scalars, which is what lets shamir's CombineInto
// reconstruct whole share slices with k MulSliceAdd passes. As in gf16's
// mirror kernel, the weights are computed as discrete logs:
//
//	log L_i(0) = Σ_j log xs[j] − log xs[i] − Σ_j log(xs[i]⊕xs[j])  (mod 255)
//
// The diagonal term j = i adds logTable[0], which is 0 only because init
// never writes it (0 has no log); the row loop relies on that instead of
// skipping j = i. The xs must be distinct and nonzero and len(coeffs)
// must equal len(xs).
func LagrangeCoeffs(xs, coeffs []byte) error {
	if err := checkDistinct(xs, len(coeffs)); err != nil {
		return err
	}
	num := 0
	for _, x := range xs {
		num += int(logTable[x])
	}
	for i, xi := range xs {
		den := 0
		for _, xj := range xs {
			den += int(logTable[xi^xj])
		}
		e := (num - int(logTable[xi]) - den) % 255
		if e < 0 {
			e += 255
		}
		coeffs[i] = expTable[e]
	}
	return nil
}
