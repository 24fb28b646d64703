package gf16

import (
	"slices"
	"testing"

	"lemonade/internal/rng"
)

// The gf16 kernels can't be swept over every (c, element) pair — 2^32
// cases — so constants sweep a structured set (all byte-ish values plus
// high-bit patterns) against full element coverage in the operand, and
// the distinctness bitset is tested across its pairwise/bitset threshold.

func patternWords(n int, salt uint16) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(i*40503+977) ^ salt
	}
	return out
}

func kernelConstants() []uint16 {
	cs := []uint16{0, 1, 2, 3, 255, 256, 4097, 0x8000, 0xFFFF}
	for c := uint16(5); c < 250; c += 7 {
		cs = append(cs, c, c<<8)
	}
	return cs
}

func TestMulSliceAddMatchesScalar(t *testing.T) {
	// src covers a full residue sweep of the 16-bit space including 0.
	src := make([]uint16, 1<<13)
	for i := range src {
		src[i] = uint16(i * 8) // includes 0 and high values
	}
	src[1] = 0xFFFF
	dst := make([]uint16, len(src))
	want := make([]uint16, len(src))
	for _, c := range kernelConstants() {
		copy(dst, patternWords(len(src), c))
		copy(want, dst)
		for i := range want {
			want[i] ^= Mul(c, src[i])
		}
		MulSliceAdd(dst, src, c)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("MulSliceAdd c=%d diverges at %d: got %d want %d", c, i, dst[i], want[i])
			}
		}
	}
}

func TestAddSliceLengths(t *testing.T) {
	for n := 0; n <= 64; n++ {
		dst := patternWords(n, 0xA5A5)
		src := patternWords(n, 0x3C3C)
		want := make([]uint16, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		addSlice(dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("addSlice diverges at n=%d i=%d", n, i)
			}
		}
	}
}

// evalPoly evaluates the polynomial with ascending coefficients p at x by
// Horner's rule — the independent reference the Lagrange basis must
// reproduce.
func evalPoly(p []uint16, x uint16) uint16 {
	var y uint16
	for i := len(p) - 1; i >= 0; i-- {
		y = Mul(y, x) ^ p[i]
	}
	return y
}

// TestLagrangeCoeffsMatchInterpolate: through k points of a degree-(k-1)
// polynomial, Σ ys[i]·L_i(0) must equal that polynomial's constant term,
// for every polynomial of a salt sweep.
func TestLagrangeCoeffsMatchInterpolate(t *testing.T) {
	xs := []uint16{1, 2, 3, 700, 40000, 65535}
	ys := make([]uint16, len(xs))
	coeffs := make([]uint16, len(xs))
	if err := LagrangeCoeffs(xs, coeffs); err != nil {
		t.Fatal(err)
	}
	for _, salt := range kernelConstants() {
		p := patternWords(len(xs), salt)
		for i, x := range xs {
			ys[i] = evalPoly(p, x)
		}
		var got uint16
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
func refLagrangeCoeffs(xs, coeffs []uint16) {
	for i := range xs {
		num, den := uint16(1), uint16(1)
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
// pairwise-Mul reference on seeded random k-subsets of 1..n, from single
// points through the wide-memory shape (114 of 1131) to k = 1000, with
// and without the top coordinate 65535. x = 0 has no discrete log, so
// the same sets with one coordinate zeroed must be refused rather than
// silently mis-weighted.
func TestLagrangeCoeffsMatchReference(t *testing.T) {
	cases := []struct{ k, n int }{
		{1, 1}, {2, 2}, {2, 65535}, {3, 10}, {12, 40}, {32, 32}, {33, 100},
		{114, 1131}, {200, 65535}, {1000, 1131}, {1000, 65535},
	}
	r := rng.New(0x1a6)
	for _, c := range cases {
		for trial := 0; trial < 8; trial++ {
			xs := make([]uint16, c.k)
			for i, v := range r.Perm(c.n)[:c.k] {
				xs[i] = uint16(v + 1)
			}
			if trial%2 == 0 && !slices.Contains(xs, 65535) {
				xs[0] = 65535
			}
			want := make([]uint16, c.k)
			refLagrangeCoeffs(xs, want)
			got := make([]uint16, c.k)
			if err := LagrangeCoeffs(xs, got); err != nil {
				t.Fatalf("k=%d n=%d trial %d: %v", c.k, c.n, trial, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d trial %d: coeffs[%d] (x=%d) = %d, reference %d",
						c.k, c.n, trial, i, xs[i], got[i], want[i])
				}
			}
			xs[c.k/2] = 0
			if err := LagrangeCoeffs(xs, got); err == nil {
				t.Fatalf("k=%d n=%d trial %d: x = 0 not rejected", c.k, c.n, trial)
			}
		}
	}
}

// TestCheckDistinctBothPaths exercises the pairwise path (k ≤ 32) and the
// bitset path (k > 32) on both clean and duplicate-bearing inputs.
func TestCheckDistinctBothPaths(t *testing.T) {
	for _, k := range []int{2, 32, 33, 500} {
		xs := make([]uint16, k)
		for i := range xs {
			xs[i] = uint16(i + 1)
		}
		if err := checkDistinct(xs, k); err != nil {
			t.Fatalf("k=%d distinct set rejected: %v", k, err)
		}
		xs[k-1] = xs[0]
		if err := checkDistinct(xs, k); err == nil {
			t.Fatalf("k=%d duplicate not detected", k)
		}
	}
	if err := checkDistinct(nil, 0); err == nil {
		t.Fatal("empty point set not rejected")
	}
	if err := checkDistinct([]uint16{1}, 2); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

// Lagrange interpolation keeps no per-call seen-map; pin the zero-alloc
// success path of LagrangeCoeffs on both sides of the distinctness
// threshold.
func TestInterpolateNoAllocs(t *testing.T) {
	small := make([]uint16, 8)
	for i := range small {
		small[i] = uint16(i + 1)
	}
	large := make([]uint16, 100)
	for i := range large {
		large[i] = uint16(i + 1)
	}
	coeffsSmall := make([]uint16, len(small))
	coeffsLarge := make([]uint16, len(large))
	for name, f := range map[string]func(){
		"small": func() { _ = LagrangeCoeffs(small, coeffsSmall) },
		"large": func() { _ = LagrangeCoeffs(large, coeffsLarge) },
	} {
		if n := testing.AllocsPerRun(50, f); n != 0 {
			t.Errorf("LagrangeCoeffs %s-k allocates %v times per call, want 0", name, n)
		}
	}
}

func TestSliceKernelsLengthMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"MulSliceAdd", func() { MulSliceAdd(make([]uint16, 3), make([]uint16, 4), 5) }},
		{"FFT.Eval out not a power of two", func() { new(FFT).Eval(make([]uint16, 12), nil) }},
		{"FFT.Eval empty out", func() { new(FFT).Eval(nil, nil) }},
		{"FFT.Eval f longer than out", func() { new(FFT).Eval(make([]uint16, 4), make([]uint16, 5)) }},
		{"FFT.Eval beyond the field", func() { new(FFT).Eval(make([]uint16, 1<<17), nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}
