// Package shamir implements Shamir's (k, n) threshold secret-sharing
// scheme, the redundant-encoding mechanism of §4.1.4 of the paper.
//
// A secret byte string is encoded into n component shares such that any k
// shares reconstruct the secret exactly, while k-1 or fewer shares reveal
// no information about it. The paper stores each component in a
// read-destructive memory behind a NEMS structure; device failures show up
// as share *erasures*, which the scheme tolerates by design.
//
// The algorithm is written once, generic over the field element, and runs
// over two fields: Narrow shares over GF(2^8) (up to 255 shares, one
// element per secret byte) and Wide over GF(2^16) (up to 65,535 shares, as
// the wide parallel structures of the paper's low-β designs need; secrets
// are packed into 16-bit words). The per-field arithmetic kernels stay in
// packages gf256 and gf16. The fields evaluate a split's polynomials
// differently: Narrow share by share, k-1 slice passes each, and Wide,
// whose n runs to thousands, with one additive FFT per secret word over
// all x below the next power of two above n (gf16.FFT).
//
// Share x-coordinates are 1..n (x = 0 would leak the secret directly, since
// the secret is the constant coefficient q(0)).
package shamir

import (
	"errors"
	"sync"

	"lemonade/internal/gf16"
	"lemonade/internal/gf256"
	"lemonade/internal/rng"
)

// Elem is a field element: a GF(2^8) byte or a GF(2^16) word.
type Elem interface{ uint8 | uint16 }

// ShareOf is one component of a secret split over the field of E.
type ShareOf[E Elem] struct {
	X    E   // evaluation point, 1..n
	Data []E // q_i(X) for each secret element i
	// Padded records that the secret did not fill its last element, whose
	// low byte is then padding. Only Wide shares of odd-length secrets
	// set it.
	Padded bool
}

// Share is a Narrow (GF(2^8)) share: one Data byte per secret byte.
type Share = ShareOf[uint8]

// Scheme is Shamir sharing over one field. The generic code calls the
// field's kernels once per share, per secret element or per split, never
// per field element, so the per-element loops run inside the monomorphic
// gf256/gf16 kernels.
type Scheme[E Elem] struct {
	bits           int // element width
	mulSliceAdd    func(dst, src []E, c E)
	evalShares     func(sc *scratch[E], shares []ShareOf[E], words, rows []E)
	lagrangeCoeffs func(xs, coeffs []E) error

	mu   sync.Mutex
	free []*scratch[E] // idle working sets, reused by later calls
}

// The two schemes. core picks Narrow for structures up to 255 devices and
// Wide beyond.
var (
	Narrow = &Scheme[uint8]{
		bits:           8,
		mulSliceAdd:    gf256.MulSliceAdd,
		evalShares:     powersEval,
		lagrangeCoeffs: gf256.LagrangeCoeffs,
	}
	Wide = &Scheme[uint16]{
		bits:           16,
		mulSliceAdd:    gf16.MulSliceAdd,
		evalShares:     fftEval,
		lagrangeCoeffs: gf16.LagrangeCoeffs,
	}
)

var (
	// ErrTooFewShares is returned by Combine when fewer than the threshold
	// number of distinct shares are supplied.
	ErrTooFewShares = errors.New("shamir: not enough shares to reconstruct")
	// ErrInconsistent is returned when shares disagree on length or
	// padding.
	ErrInconsistent = errors.New("shamir: shares have inconsistent shapes")
)

// MaxShares is the largest supported n: the field's nonzero x-coordinates.
func (s *Scheme[E]) MaxShares() int { return 1<<s.bits - 1 }

// width is the number of secret bytes one element carries.
func (s *Scheme[E]) width() int { return s.bits / 8 }

// Split is Narrow.Split.
func Split(secret []byte, k, n int, r *rng.RNG) ([]Share, error) {
	return Narrow.Split(secret, k, n, r)
}

// Split encodes secret into n shares with threshold k. Every secret
// element is embedded as the constant term of an independent random
// polynomial of degree k-1 (Eq 7 of the paper), evaluated at x = 1..n.
// It is the allocating wrapper around SplitInto. Every share's Data is a
// window of one backing array, capped at its own length, so SplitInto
// keeps the windows and an append to one share reallocates rather than
// running into the next.
func (s *Scheme[E]) Split(secret []byte, k, n int, r *rng.RNG) ([]ShareOf[E], error) {
	var shares []ShareOf[E]
	if k >= 1 && n >= k && n <= s.MaxShares() {
		shares = make([]ShareOf[E], n)
		w := (len(secret) + s.width() - 1) / s.width()
		data := make([]E, n*w)
		for i := range shares {
			shares[i].Data = data[i*w : (i+1)*w : (i+1)*w]
		}
	}
	if err := s.SplitInto(secret, shares, k, n, r); err != nil {
		return nil, err
	}
	return shares, nil
}

// Combine reconstructs the secret from at least k distinct shares.
// Extra shares beyond k are ignored (the first k distinct ones are used),
// mirroring a receiver that stops reading components once enough paths
// succeeded. It is the allocating wrapper around CombineInto; the first
// share's length sizes the destination, which CombineInto's consistency
// check then holds every used share to.
func (s *Scheme[E]) Combine(shares []ShareOf[E], k int) ([]byte, error) {
	var dst []byte
	if len(shares) > 0 {
		dst = make([]byte, s.width()*len(shares[0].Data))
	}
	n, err := s.CombineInto(shares, k, dst)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}
