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

// LagrangeCoeffs fills coeffs[i] with L_i(x) = Π_{j≠i}(x⊕xs[j])/(xs[i]⊕xs[j]),
// the scalar weights that reconstruct whole share slices via MulSliceAdd.
// The xs must be distinct and len(coeffs) must equal len(xs).
func LagrangeCoeffs(xs []uint16, x uint16, coeffs []uint16) error {
	if err := checkDistinct(xs, len(coeffs)); err != nil {
		return err
	}
	for i := range xs {
		num, den := uint16(1), uint16(1)
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
