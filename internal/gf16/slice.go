package gf16

// Slice kernels mirroring gf256's. A full multiplication table would be
// 2^32 entries here, so the constant's log is hoisted out of the loop
// instead and each element costs one log and one exp lookup. As in gf256,
// field arithmetic is exact, so these are bit-identical to element-wise
// Mul and XOR. dst may be the same slice as src but must not otherwise
// overlap it; none of the kernels allocate.

// addSlice adds src into dst elementwise: dst[i] ^= src[i]; the slices
// have equal length.
func addSlice(dst, src []uint16) {
	for i, s := range src {
		dst[i] ^= s
	}
}

// MulSliceAdd multiply-accumulates a constant into dst: dst[i] ^= c·src[i].
func MulSliceAdd(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		//lemonvet:allow panic mismatched kernel operand lengths are a caller bug, like out-of-range indexing
		panic("gf16: MulSliceAdd length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		addSlice(dst, src)
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}

// LagrangeCoeffs fills coeffs[i] with the weight L_i(0) of share i in the
// value at 0 of the polynomial through the xs — the secret, for Shamir.
// In characteristic 2, L_i(0) = (Π_j xs[j] / xs[i]) / Π_{j≠i}(xs[i]⊕xs[j]),
// so the weights are computed as discrete logs:
//
//	log L_i(0) = Σ_j log xs[j] − log xs[i] − Σ_j log(xs[i]⊕xs[j])  (mod Order)
//
// One O(k) sum gives every numerator and each denominator is a row of k
// table lookups and integer adds: the diagonal term j = i adds
// logTable[0], which is 0 because init never writes it. Field arithmetic
// is exact, so these are the same weights as the pairwise Mul/Div product.
// The xs must be distinct and nonzero (0 has no log) and len(coeffs) must
// equal len(xs).
func LagrangeCoeffs(xs, coeffs []uint16) error {
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
		e := (num - int(logTable[xi]) - den) % Order
		if e < 0 {
			e += Order
		}
		coeffs[i] = expTable[e]
	}
	return nil
}
