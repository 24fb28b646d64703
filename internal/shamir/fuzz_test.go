package shamir

import (
	"bytes"
	"testing"

	"lemonade/internal/rng"
)

// FuzzShamirReconstruct attacks Combine from the receiver's side: valid
// share subsets must round-trip, while corrupted inputs — duplicated
// x-coordinates, truncated share data, flipped bytes, an x=0 share —
// must produce a clean error or a wrong secret, never a panic. The
// paper's receiver consumes shares read from half-dead hardware, so
// Combine's failure mode under damage is part of the security surface.
func FuzzShamirReconstruct(f *testing.F) {
	f.Add([]byte("limited-use secret"), uint8(3), uint8(6), uint64(1), uint8(0), uint8(0))
	f.Add([]byte{0xff}, uint8(1), uint8(3), uint64(2), uint8(1), uint8(7))
	f.Add([]byte("0123456789abcdef"), uint8(5), uint8(12), uint64(3), uint8(2), uint8(255))
	f.Fuzz(func(t *testing.T, secret []byte, k8, n8 uint8, seed uint64, mode, corrupt uint8) {
		k := int(k8%16) + 1
		n := k + int(n8%32)
		if len(secret) == 0 || len(secret) > 128 {
			return
		}
		r := rng.New(seed)
		shares, err := Split(secret, k, n, r)
		if err != nil {
			t.Fatalf("Split(k=%d, n=%d): %v", k, n, err)
		}
		subset := make([]Share, k)
		for i, idx := range r.Perm(n)[:k] {
			subset[i] = Share{X: shares[idx].X, Data: bytes.Clone(shares[idx].Data)}
		}

		switch mode % 4 {
		case 0: // pristine subset must round-trip
			got, err := Combine(subset, k)
			if err != nil {
				t.Fatalf("Combine on valid shares: %v", err)
			}
			if !bytes.Equal(got, secret) {
				t.Fatalf("valid shares reconstructed %x, want %x", got, secret)
			}
		case 1: // duplicate x-coordinate: k distinct no longer available
			if k < 2 {
				return
			}
			subset[0].X = subset[1].X
			if _, err := Combine(subset, k); err == nil {
				t.Fatal("Combine succeeded with a duplicated share coordinate")
			}
		case 2: // truncated share data must error cleanly, not panic
			// (k=1 is exempt: a lone share has no sibling to disagree with)
			if k < 2 {
				return
			}
			subset[int(corrupt)%k].Data = subset[int(corrupt)%k].Data[:len(secret)/2]
			if _, err := Combine(subset, k); err == nil {
				t.Fatal("Combine succeeded with truncated share data")
			}
		case 3: // flipped share byte: reconstruction proceeds but must not
			// return the true secret when the damage is inside the used
			// subset (Lagrange has no integrity check; callers layer one)
			s := &subset[int(corrupt)%k]
			s.Data[int(seed)%len(s.Data)] ^= 1 + corrupt%255
			got, err := Combine(subset, k)
			if err != nil {
				return
			}
			if k > 1 && bytes.Equal(got, secret) {
				t.Fatal("corrupted share subset still reconstructed the true secret")
			}
		}
	})
}

func FuzzSplitCombine(f *testing.F) {
	f.Add([]byte("seed secret"), uint8(3), uint8(5), uint64(1))
	f.Add([]byte{0}, uint8(1), uint8(1), uint64(2))
	f.Add([]byte{255, 0, 127}, uint8(8), uint8(128), uint64(3))
	f.Fuzz(func(t *testing.T, secret []byte, k8, n8 uint8, seed uint64) {
		k := int(k8%32) + 1
		n := k + int(n8%64)
		if len(secret) == 0 || len(secret) > 256 {
			return
		}
		r := rng.New(seed)
		shares, err := Split(secret, k, n, r)
		if err != nil {
			t.Fatalf("Split(k=%d, n=%d): %v", k, n, err)
		}
		// combine from the last k shares (any subset must work)
		got, err := Combine(shares[n-k:], k)
		if err != nil {
			t.Fatalf("Combine: %v", err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("round trip failed: %x != %x", got, secret)
		}
		// k-1 shares must never reconstruct
		if k > 1 {
			if _, err := Combine(shares[:k-1], k); err == nil {
				t.Fatal("below-threshold reconstruction succeeded")
			}
		}
	})
}
