package gf16

import (
	"math/bits"
	"slices"
	"testing"

	"lemonade/internal/rng"
)

// checkFFT evaluates a seeded random polynomial of k coefficients at every
// x < size with e and compares each value with Horner's rule.
func checkFFT(t *testing.T, e *FFT, r *rng.RNG, k, size int) {
	t.Helper()
	f := make([]uint16, k)
	for i := range f {
		f[i] = uint16(r.Intn(1 << 16))
	}
	in := slices.Clone(f)
	out := make([]uint16, size)
	for i := range out {
		out[i] = 0xDBDB
	}
	e.Eval(out, f)
	if !slices.Equal(f, in) {
		t.Fatalf("k=%d size=%d: Eval modified its coefficients", k, size)
	}
	for x := range out {
		if want := evalPoly(f, uint16(x)); out[x] != want {
			t.Fatalf("k=%d size=%d: f(%d) = %d, Horner %d", k, size, x, out[x], want)
		}
	}
}

// TestFFTMatchesHorner checks the additive FFT against Horner's rule at
// the shamir shapes (k of n shares, evaluated over 0..2^m−1 for m the bit
// length of n): k = 1, k = n, n = 1, n just below and at a power of two,
// the wide-memory point and the largest field, each with small and large
// k. One FFT serves every case, so its tables are rebuilt as m moves up
// and down.
func TestFFTMatchesHorner(t *testing.T) {
	cases := []struct{ k, n int }{
		{1, 1}, {1, 2}, {2, 2}, {1, 3}, {3, 3}, {2, 7}, {7, 7}, {5, 8}, {8, 8},
		{1, 255}, {17, 255}, {255, 255}, {3, 256}, {256, 256},
		{1, 1023}, {114, 1023}, {1023, 1023}, {40, 1024}, {1024, 1024},
		{114, 1131}, {1131, 1131}, {1, 1131},
		{1, 65535}, {3, 65535}, {300, 65535},
	}
	var e FFT
	r := rng.New(0xff7)
	for _, c := range cases {
		checkFFT(t, &e, r, c.k, 1<<bits.Len(uint(c.n)))
	}
	// The kernel's own edges: no coefficients, a single point, and a
	// polynomial that fills the subspace.
	checkFFT(t, &e, r, 0, 16)
	checkFFT(t, &e, r, 1, 1)
	checkFFT(t, &e, r, 2048, 2048)
}

// FuzzFFTEval runs TestFFTMatchesHorner's check on fuzzer-chosen shapes:
// 2^0..2^12 points and up to 256 coefficients.
func FuzzFFTEval(f *testing.F) {
	f.Add(uint64(1), uint8(11), uint16(114))
	f.Add(uint64(2), uint8(0), uint16(1))
	f.Add(uint64(3), uint8(4), uint16(16))
	f.Add(uint64(4), uint8(8), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, logSize uint8, k uint16) {
		size := 1 << (logSize % 13)
		var e FFT
		checkFFT(t, &e, rng.New(seed), int(k)%(min(size, 256)+1), size)
	})
}
