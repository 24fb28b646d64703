// Package shamir implements Shamir's (k, n) threshold secret-sharing scheme
// over GF(2^8), the redundant-encoding mechanism of §4.1.4 of the paper.
//
// A secret byte string is encoded into n component shares such that any k
// shares reconstruct the secret exactly, while k-1 or fewer shares reveal
// no information about it. The paper stores each component in a
// read-destructive memory behind a NEMS structure; device failures show up
// as share *erasures*, which the scheme tolerates by design.
//
// Share x-coordinates are 1..n (x = 0 would leak the secret directly, since
// the secret is the constant coefficient q(0)).
package shamir

import (
	"errors"

	"lemonade/internal/rng"
)

// MaxShares is the largest supported n: the field has 255 usable nonzero
// x-coordinates.
const MaxShares = 255

// Share is one component of a split secret.
type Share struct {
	X    byte   // evaluation point, 1..n
	Data []byte // q_i(X) for each secret byte i
}

var (
	// ErrTooFewShares is returned by Combine when fewer than the threshold
	// number of distinct shares are supplied.
	ErrTooFewShares = errors.New("shamir: not enough shares to reconstruct")
	// ErrInconsistent is returned when shares disagree on length.
	ErrInconsistent = errors.New("shamir: shares have inconsistent lengths")
)

// Split encodes secret into n shares with threshold k. Every byte of the
// secret is embedded as the constant term of an independent random
// polynomial of degree k-1 (Eq 7 of the paper), evaluated at x = 1..n.
// It is the allocating wrapper around SplitInto.
func Split(secret []byte, k, n int, r *rng.RNG) ([]Share, error) {
	var shares []Share
	if k >= 1 && n >= k && n <= MaxShares {
		shares = make([]Share, n)
	}
	if err := SplitInto(secret, shares, k, n, r); err != nil {
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
func Combine(shares []Share, k int) ([]byte, error) {
	var dst []byte
	if len(shares) > 0 {
		dst = make([]byte, len(shares[0].Data))
	}
	n, err := CombineInto(shares, k, dst)
	if err != nil {
		return nil, err
	}
	return dst[:n], nil
}
