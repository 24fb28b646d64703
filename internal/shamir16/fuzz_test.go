package shamir16

import (
	"bytes"
	"slices"
	"testing"

	"lemonade/internal/rng"
)

// FuzzShamir16Reconstruct attacks CombineInto — the GF(2^16) decode the
// daemon runs on every wide-structure access — from the receiver's side,
// with the same four damage modes as shamir's FuzzShamirReconstruct:
// valid share subsets must round-trip, while duplicated x-coordinates,
// truncated share data and flipped words must produce a clean error or a
// wrong secret, never a panic. n reaches past 255, so the fuzzer covers
// the sharings GF(2^8) cannot express and the bitset duplicate check.
func FuzzShamir16Reconstruct(f *testing.F) {
	f.Add([]byte("limited-use secret"), uint8(3), uint16(6), uint64(1), uint8(0), uint8(0))
	f.Add([]byte{0xff}, uint8(1), uint16(3), uint64(2), uint8(1), uint8(7))
	f.Add([]byte("0123456789abcdef"), uint8(5), uint16(300), uint64(3), uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, secret []byte, k8 uint8, n16 uint16, seed uint64, mode, corrupt uint8) {
		k := int(k8%48) + 1
		n := k + int(n16%512)
		if len(secret) == 0 || len(secret) > 64 {
			return
		}
		r := rng.New(seed)
		shares, err := Split(secret, k, n, r)
		if err != nil {
			t.Fatalf("Split(k=%d, n=%d): %v", k, n, err)
		}
		subset := make([]Share, k)
		for i, idx := range r.Perm(n)[:k] {
			sh := shares[idx]
			subset[i] = Share{X: sh.X, Data: slices.Clone(sh.Data), Padded: sh.Padded}
		}
		// Sized like the daemon's decoder: from the first share's words.
		dst := make([]byte, 2*len(subset[0].Data))

		switch mode % 4 {
		case 0: // pristine subset must round-trip
			m, err := CombineInto(subset, k, dst)
			if err != nil {
				t.Fatalf("CombineInto on valid shares: %v", err)
			}
			if !bytes.Equal(dst[:m], secret) {
				t.Fatalf("valid shares reconstructed %x, want %x", dst[:m], secret)
			}
		case 1: // duplicate x-coordinate: k distinct no longer available
			if k < 2 {
				return
			}
			subset[0].X = subset[1].X
			if _, err := CombineInto(subset, k, dst); err == nil {
				t.Fatal("CombineInto succeeded with a duplicated share coordinate")
			}
		case 2: // truncated share data must error cleanly, not panic
			// (k=1 is exempt: a lone share has no sibling to disagree with)
			if k < 2 {
				return
			}
			s := &subset[int(corrupt)%k]
			s.Data = s.Data[:len(s.Data)/2]
			if _, err := CombineInto(subset, k, dst); err == nil {
				t.Fatal("CombineInto succeeded with truncated share data")
			}
		case 3: // flipped share word: reconstruction proceeds but must not
			// return the true secret when the damage is inside the used
			// subset (Lagrange has no integrity check; callers layer one).
			// The flip lands in a word holding two secret bytes: the
			// damage spreads over a whole 16-bit word, and a padded last
			// word could hide it in the pad byte.
			full := len(secret) / 2
			if full == 0 {
				return
			}
			s := &subset[int(corrupt)%k]
			s.Data[int(seed%uint64(full))] ^= 1 + uint16(corrupt)
			m, err := CombineInto(subset, k, dst)
			if err != nil {
				return
			}
			if k > 1 && bytes.Equal(dst[:m], secret) {
				t.Fatal("corrupted share subset still reconstructed the true secret")
			}
		}
	})
}
