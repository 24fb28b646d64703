package gf256

import (
	"bytes"
	"testing"

	"lemonade/internal/rng"
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
// polynomial, Σ ys[i]·L_i(0) must equal that polynomial's constant term,
// for every polynomial of a 256-salt sweep.
func TestLagrangeCoeffsMatchInterpolate(t *testing.T) {
	xs := []byte{1, 2, 3, 7, 90, 255}
	ys := make([]byte, len(xs))
	coeffs := make([]byte, len(xs))
	if err := LagrangeCoeffs(xs, coeffs); err != nil {
		t.Fatal(err)
	}
	for salt := 0; salt < 256; salt++ {
		p := patternBytes(len(xs), byte(salt))
		for i, x := range xs {
			ys[i] = evalPoly(p, x)
		}
		var got byte
		for i := range xs {
			got ^= Mul(ys[i], coeffs[i])
		}
		if got != p[0] {
			t.Fatalf("salt %d: reconstructed constant term %d, want %d", salt, got, p[0])
		}
	}
}

// refLagrangeCoeffs is the pairwise product the log-domain kernel
// replaced, kept as its reference: L_i(0) = Π_{j≠i} xs[j]/(xs[i]⊕xs[j]),
// one Mul per factor.
func refLagrangeCoeffs(xs, coeffs []byte) {
	for i := range xs {
		num, den := byte(1), byte(1)
		for j := range xs {
			if j == i {
				continue
			}
			num = Mul(num, xs[j])
			den = Mul(den, xs[i]^xs[j])
		}
		coeffs[i] = Div(num, den)
	}
}

// TestLagrangeCoeffsMatchReference: the log-domain weights equal the
// pairwise-Mul reference on seeded random k-subsets of 1..n, up to the
// full field (k = n = 255), with and without the top coordinate 255.
func TestLagrangeCoeffsMatchReference(t *testing.T) {
	cases := []struct{ k, n int }{
		{1, 1}, {2, 2}, {2, 255}, {3, 10}, {15, 141}, {100, 200}, {254, 255}, {255, 255},
	}
	r := rng.New(0x1a6)
	for _, c := range cases {
		for trial := 0; trial < 8; trial++ {
			xs := make([]byte, c.k)
			for i, v := range r.Perm(c.n)[:c.k] {
				xs[i] = byte(v + 1)
			}
			if trial%2 == 0 && !bytes.Contains(xs, []byte{255}) {
				xs[0] = 255
			}
			want := make([]byte, c.k)
			refLagrangeCoeffs(xs, want)
			got := make([]byte, c.k)
			if err := LagrangeCoeffs(xs, got); err != nil {
				t.Fatalf("k=%d n=%d trial %d: %v", c.k, c.n, trial, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d trial %d: coeffs[%d] (x=%d) = %d, reference %d",
						c.k, c.n, trial, i, xs[i], got[i], want[i])
				}
			}
		}
	}
}

func TestLagrangeCoeffsErrors(t *testing.T) {
	if err := LagrangeCoeffs([]byte{1, 2, 1}, make([]byte, 3)); err == nil {
		t.Fatal("duplicate xs not rejected")
	}
	// x = 0 has no discrete log, so a point there would be silently
	// mis-weighted; the kernel refuses it instead.
	if err := LagrangeCoeffs([]byte{1, 0, 2}, make([]byte, 3)); err == nil {
		t.Fatal("x = 0 not rejected")
	}
	if err := LagrangeCoeffs([]byte{1, 2}, make([]byte, 3)); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	if err := LagrangeCoeffs(nil, nil); err == nil {
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
		"LagrangeCoeffs":    func() { _ = LagrangeCoeffs(xs, coeffs) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
