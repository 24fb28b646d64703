package shamir

import (
	"errors"
	"fmt"
	"math/bits"

	"lemonade/internal/gf16"
	"lemonade/internal/gf256"
	"lemonade/internal/rng"
)

// scratch is the per-call working set of SplitInto/CombineInto: the packed
// secret and random coefficient rows for a split, and the survivor
// bookkeeping for a combine. Instances cycle through the scheme's free
// list; every buffer is length-set and fully written before it is read,
// and the seen bitset is cleared after each use, so whether a call gets a
// recycled or a fresh instance never influences output bytes.
type scratch[E Elem] struct {
	rows   []E // the k-1 coefficient rows, back to back
	words  []E
	xs     []E
	coeffs []E
	dist   []int
	seen   [1 << 16 / 8]byte // X-coordinate bitset, one bit per possible X
	// Wide's split: one word's coefficients, then its values at 0..2^m−1,
	// and the FFT's tables for the last m and its buffers.
	vals []E
	fft  gf16.FFT
}

// getScratch takes an idle working set off the free list, or makes a
// fresh one. A free list rather than a sync.Pool: a pool drops entries at
// every GC (and, under the race detector, at random), which would put
// allocations back on the steady-state path.
func (s *Scheme[E]) getScratch() *scratch[E] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		sc := s.free[n-1]
		s.free = s.free[:n-1]
		return sc
	}
	return new(scratch[E])
}

// putScratch returns sc to the free list.
func (s *Scheme[E]) putScratch(sc *scratch[E]) {
	s.mu.Lock()
	s.free = append(s.free, sc)
	s.mu.Unlock()
}

// grow returns b resized to n elements, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite fully.
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// firstDistinct returns the indexes of the first k shares with distinct X
// (fewer when the shares run out), or an error on an x = 0 share.
func (sc *scratch[E]) firstDistinct(shares []ShareOf[E], k int) ([]int, error) {
	dist := grow(sc.dist, k)[:0]
	var err error
	for si := range shares {
		x := shares[si].X
		if x == 0 {
			err = errors.New("shamir: share with x=0 is invalid")
			break
		}
		bit := byte(1) << (x & 7)
		if sc.seen[x>>3]&bit != 0 {
			continue
		}
		sc.seen[x>>3] |= bit
		dist = append(dist, si)
		if len(dist) == k {
			break
		}
	}
	for _, si := range dist {
		x := shares[si].X
		sc.seen[x>>3] &^= 1 << (x & 7)
	}
	sc.dist = dist
	return dist, err
}

// pack packs b big-endian into elements of width bytes (grown as needed),
// padding the last element with zero low bytes, and reports whether it
// padded.
func pack[E Elem](dst []E, b []byte, width int) ([]E, bool) {
	dst = grow(dst, (len(b)+width-1)/width)
	clear(dst)
	for i, c := range b {
		dst[i/width] |= E(c) << (8 * (width - 1 - i%width))
	}
	return dst, len(b)%width != 0
}

// unpack is pack's inverse: it fills dst with the big-endian bytes of
// words, stopping where dst ends (before any pad byte).
func unpack[E Elem](dst []byte, words []E, width int) {
	for i := range dst {
		dst[i] = byte(words[i/width] >> (8 * (width - 1 - i%width)))
	}
}

// SplitInto is the destination-buffer form of Split: it encodes secret into
// shares, which must have length n. Share Data arrays are reused when they
// have capacity and reallocated otherwise; X coordinates are (re)assigned
// to 1..n. It draws from r in exactly Split's order — one coefficient per
// (secret element, degree) pair, degree-major within each element — so
// Split and SplitInto emit bit-identical shares from equal RNG states. The
// field's evalShares then evaluates every polynomial at every share's X;
// field arithmetic is exact, so how it does so never changes a share.
func (s *Scheme[E]) SplitInto(secret []byte, shares []ShareOf[E], k, n int, r *rng.RNG) error {
	if k < 1 {
		return fmt.Errorf("shamir: threshold k must be >= 1, got %d", k)
	}
	if n < k {
		return fmt.Errorf("shamir: n (%d) must be >= k (%d)", n, k)
	}
	if n > s.MaxShares() {
		return fmt.Errorf("shamir: n must be <= %d, got %d", s.MaxShares(), n)
	}
	if len(secret) == 0 {
		return errors.New("shamir: empty secret")
	}
	if len(shares) != n {
		return fmt.Errorf("shamir: destination holds %d shares, need n=%d", len(shares), n)
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	var padded bool
	sc.words, padded = pack(sc.words, secret, s.width())
	words := sc.words
	for i := range shares {
		shares[i].X = E(i + 1)
		shares[i].Data = grow(shares[i].Data, len(words))
		shares[i].Padded = padded
	}
	// Random coefficients land in per-degree rows: row j-1 holds the
	// degree-j coefficient of every secret element.
	sc.rows = grow(sc.rows, (k-1)*len(words))
	for w := range words {
		for j := 1; j < k; j++ {
			sc.rows[(j-1)*len(words)+w] = E(r.Intn(1 << s.bits))
		}
	}
	s.evalShares(sc, shares, words, sc.rows)
	return nil
}

// powersEval is Narrow's evalShares: each share is its words plus one
// MulPowersAdd over the rows, k-1 slice passes per share.
func powersEval(_ *scratch[uint8], shares []Share, words, rows []uint8) {
	for i := range shares {
		d := shares[i].Data
		copy(d, words)
		gf256.MulPowersAdd(d, rows, shares[i].X)
	}
}

// fftEval is Wide's evalShares: shares sit at X = 1..n, so each secret
// word's polynomial is evaluated at every x below 2^m, m the bit length of
// n, by one additive FFT (gf16.FFT) — about log₂k·2^(m−1) multiplies per
// word where a per-share powers loop takes (k-1)·n — and the values at
// 1..n are scattered into the shares.
func fftEval(sc *scratch[uint16], shares []ShareOf[uint16], words, rows []uint16) {
	k := len(rows)/len(words) + 1
	vals := grow(sc.vals, 1<<bits.Len(uint(len(shares))))
	sc.vals = vals
	for w, c := range words {
		vals[0] = c
		for j := 1; j < k; j++ {
			vals[j] = rows[(j-1)*len(words)+w]
		}
		sc.fft.Eval(vals, vals[:k])
		for i := range shares {
			shares[i].Data[w] = vals[i+1]
		}
	}
}

// CombineInto reconstructs the secret from at least k distinct shares into
// dst, returning the number of bytes written (the shares' data length in
// bytes, less the pad byte of a Padded share). dst must be at least that
// long. Share selection matches Combine: the first k distinct X win, later
// duplicates are ignored, x = 0 is rejected on sight.
func (s *Scheme[E]) CombineInto(shares []ShareOf[E], k int, dst []byte) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("shamir: threshold k must be >= 1, got %d", k)
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	dist, err := sc.firstDistinct(shares, k)
	if err != nil {
		return 0, err
	}
	if len(dist) < k {
		return 0, fmt.Errorf("%w: have %d distinct, need %d", ErrTooFewShares, len(dist), k)
	}
	words := len(shares[dist[0]].Data)
	padded := shares[dist[0]].Padded
	for _, si := range dist {
		if len(shares[si].Data) != words || shares[si].Padded != padded {
			return 0, ErrInconsistent
		}
	}
	outLen := s.width() * words
	if padded && outLen > 0 {
		outLen--
	}
	if len(dst) < outLen {
		return 0, fmt.Errorf("shamir: dst holds %d bytes, need %d", len(dst), outLen)
	}
	sc.xs = grow(sc.xs, k)
	sc.coeffs = grow(sc.coeffs, k)
	for i, si := range dist {
		sc.xs[i] = shares[si].X
	}
	// The secret is q(0) = Σ_i L_i(0)·share_i — k scalar Lagrange weights,
	// then one MulSliceAdd sweep per share.
	if err := s.lagrangeCoeffs(sc.xs, sc.coeffs); err != nil {
		return 0, err
	}
	out := grow(sc.words, words)
	sc.words = out
	clear(out)
	for i, si := range dist {
		s.mulSliceAdd(out, shares[si].Data, sc.coeffs[i])
	}
	unpack(dst[:outLen], out, s.width())
	return outLen, nil
}
