package gf256

import (
	"bytes"
	"testing"
)

// The slice kernels claim bit-identity with the scalar field ops. The
// field has only 256 elements, so that claim is checked exhaustively:
// every (c, byte) pair for the multiply kernel, and every alignment ×
// length combination in 0..64 for the word-batched XOR path.

// patternBytes fills a deterministic, alignment-revealing byte pattern
// without pulling in an RNG: a full residue sweep xored with the index.
func patternBytes(n int, salt byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*151+13) ^ salt
	}
	return out
}

func TestMulSliceAddExhaustive(t *testing.T) {
	// One slice holding every field element, multiplied by every constant:
	// all 65 536 (c, a) pairs hit the kernel path.
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 256)
	want := make([]byte, 256)
	for c := 0; c < 256; c++ {
		copy(dst, patternBytes(256, byte(c)))
		copy(want, dst)
		for i := range want {
			want[i] ^= Mul(byte(c), src[i])
		}
		MulSliceAdd(dst, src, byte(c))
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSliceAdd c=%d diverges from scalar Mul", c)
		}
	}
}

// TestAddSliceAlignments drives addSlice's 8-byte word batching (the
// c = 1 path of MulSliceAdd) across every
// (offset, length) pair with offset in 0..7 and length in 0..64, so the
// word loop, the byte tail, and their boundary are all exercised at every
// alignment of dst and src relative to the word size.
func TestAddSliceAlignments(t *testing.T) {
	const maxLen = 64
	backingDst := patternBytes(maxLen+16, 0xA5)
	backingSrc := patternBytes(maxLen+16, 0x3C)
	for dOff := 0; dOff < 8; dOff++ {
		for sOff := 0; sOff < 8; sOff++ {
			for n := 0; n <= maxLen; n++ {
				dst := append([]byte(nil), backingDst[dOff:dOff+n]...)
				src := backingSrc[sOff : sOff+n]
				want := make([]byte, n)
				for i := range want {
					want[i] = dst[i] ^ src[i]
				}
				addSlice(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("addSlice diverges at dOff=%d sOff=%d n=%d", dOff, sOff, n)
				}
			}
		}
	}
}

// TestMulSliceAddLengths covers the scalar row-lookup path (and the c=1
// word path) over all lengths 0..64 for a spread of constants.
func TestMulSliceAddLengths(t *testing.T) {
	for _, c := range []byte{0, 1, 2, 3, 29, 127, 128, 255} {
		for n := 0; n <= 64; n++ {
			src := patternBytes(n, c)
			dst := patternBytes(n, ^c)
			want := make([]byte, n)
			for i := range want {
				want[i] = dst[i] ^ Mul(c, src[i])
			}
			MulSliceAdd(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSliceAdd diverges at c=%d n=%d", c, n)
			}
		}
	}
}

func TestSliceKernelsInPlaceAliasing(t *testing.T) {
	// dst == src is part of the documented contract.
	for _, c := range []byte{0, 1, 7, 255} {
		s := patternBytes(33, c)
		want := make([]byte, len(s))
		for i := range want {
			want[i] = s[i] ^ Mul(c, s[i])
		}
		MulSliceAdd(s, s, c)
		if !bytes.Equal(s, want) {
			t.Fatalf("in-place MulSliceAdd diverges at c=%d", c)
		}
	}
	s := patternBytes(40, 9)
	addSlice(s, s)
	for i, v := range s {
		if v != 0 {
			t.Fatalf("in-place addSlice should zero; byte %d = %d", i, v)
		}
	}
}

func TestSliceKernelsLengthMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"MulSliceAdd", func() { MulSliceAdd(make([]byte, 3), make([]byte, 4), 5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on length mismatch", tc.name)
				}
			}()
			tc.f()
		})
	}
}

// evalPoly evaluates the polynomial with ascending coefficients p at x by
// Horner's rule — the independent reference the Lagrange basis must
// reproduce.
func evalPoly(p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = Mul(y, x) ^ p[i]
	}
	return y
}

// TestLagrangeCoeffsMatchInterpolate: through k points of a degree-(k-1)
// polynomial, Σ ys[i]·L_i(x) must equal that polynomial at every
// evaluation point, including the nodes themselves (where the basis
// collapses to a unit vector).
func TestLagrangeCoeffsMatchInterpolate(t *testing.T) {
	xs := []byte{1, 2, 3, 7, 90, 255}
	p := patternBytes(len(xs), 0x1F)
	ys := make([]byte, len(xs))
	for i, x := range xs {
		ys[i] = evalPoly(p, x)
	}
	coeffs := make([]byte, len(xs))
	for x := 0; x < 256; x++ {
		if err := LagrangeCoeffs(xs, byte(x), coeffs); err != nil {
			t.Fatalf("LagrangeCoeffs(x=%d): %v", x, err)
		}
		var got byte
		for i := range xs {
			got ^= Mul(ys[i], coeffs[i])
		}
		if want := evalPoly(p, byte(x)); got != want {
			t.Fatalf("coefficient reconstruction at x=%d: got %d, want %d", x, got, want)
		}
	}
	// At a node the basis must be exactly the unit vector for that node.
	if err := LagrangeCoeffs(xs, xs[2], coeffs); err != nil {
		t.Fatal(err)
	}
	for i, c := range coeffs {
		want := byte(0)
		if i == 2 {
			want = 1
		}
		if c != want {
			t.Fatalf("basis at node: coeffs[%d] = %d, want %d", i, c, want)
		}
	}
}

func TestLagrangeCoeffsErrors(t *testing.T) {
	if err := LagrangeCoeffs([]byte{1, 2, 1}, 0, make([]byte, 3)); err == nil {
		t.Fatal("duplicate xs not rejected")
	}
	if err := LagrangeCoeffs([]byte{1, 2}, 0, make([]byte, 3)); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := LagrangeCoeffs(nil, 0, nil); err == nil {
		t.Fatal("empty point set not rejected")
	}
}

// The kernels promise zero allocations on the success path — the
// property the codec layer's alloc gates build on.
func TestSliceKernelsNoAllocs(t *testing.T) {
	dst := patternBytes(1024, 1)
	src := patternBytes(1024, 2)
	xs := []byte{1, 2, 3, 4, 5}
	coeffs := make([]byte, 5)
	for name, f := range map[string]func(){
		"MulSliceAdd (c=1)": func() { MulSliceAdd(dst, src, 1) },
		"MulSliceAdd":       func() { MulSliceAdd(dst, src, 29) },
		"LagrangeCoeffs":    func() { _ = LagrangeCoeffs(xs, 0, coeffs) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
