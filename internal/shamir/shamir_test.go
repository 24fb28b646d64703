package shamir

import (
	"bytes"
	"errors"
	"testing"

	"lemonade/internal/rng"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	r := rng.New(1)
	secret := []byte("the storage decryption key 12345")
	for _, kc := range []struct{ k, n int }{{1, 1}, {1, 5}, {2, 3}, {3, 5}, {8, 128}, {30, 60}} {
		shares, err := Split(secret, kc.k, kc.n, r)
		if err != nil {
			t.Fatalf("Split(k=%d,n=%d): %v", kc.k, kc.n, err)
		}
		if len(shares) != kc.n {
			t.Fatalf("got %d shares, want %d", len(shares), kc.n)
		}
		got, err := Combine(shares[:kc.k], kc.k)
		if err != nil {
			t.Fatalf("Combine: %v", err)
		}
		if !bytes.Equal(got, secret) {
			t.Errorf("k=%d n=%d: reconstructed %q, want %q", kc.k, kc.n, got, secret)
		}
	}
}

func TestCombineAnySubset(t *testing.T) {
	r := rng.New(2)
	secret := []byte{0x00, 0xFF, 0x42, 0x17}
	const k, n = 3, 7
	shares, err := Split(secret, k, n, r)
	if err != nil {
		t.Fatal(err)
	}
	// every 3-subset must reconstruct
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := j + 1; l < n; l++ {
				got, err := Combine([]Share{shares[i], shares[j], shares[l]}, k)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, secret) {
					t.Fatalf("subset (%d,%d,%d) failed to reconstruct", i, j, l)
				}
			}
		}
	}
}

func TestCombineWithErasures(t *testing.T) {
	// This is the paper's usage: device failures erase shares; any k of n
	// surviving shares suffice.
	r := rng.New(3)
	secret := []byte("one-time pad random key material")
	shares, err := Split(secret, 8, 128, r)
	if err != nil {
		t.Fatal(err)
	}
	// drop 120 of 128 shares (keep an arbitrary scattered 8)
	survivors := []Share{shares[0], shares[13], shares[42], shares[60], shares[77], shares[99], shares[101], shares[127]}
	got, err := Combine(survivors, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("erasure recovery failed")
	}
}

func TestTooFewShares(t *testing.T) {
	r := rng.New(4)
	shares, _ := Split([]byte("secret"), 3, 5, r)
	_, err := Combine(shares[:2], 3)
	if !errors.Is(err, ErrTooFewShares) {
		t.Errorf("expected ErrTooFewShares, got %v", err)
	}
}

func TestDuplicateSharesDontCount(t *testing.T) {
	r := rng.New(5)
	shares, _ := Split([]byte("secret"), 3, 5, r)
	_, err := Combine([]Share{shares[0], shares[0], shares[0]}, 3)
	if !errors.Is(err, ErrTooFewShares) {
		t.Errorf("duplicates should not satisfy the threshold, got %v", err)
	}
	// but duplicates alongside enough distinct shares are fine
	got, err := Combine([]Share{shares[0], shares[0], shares[1], shares[2]}, 3)
	if err != nil || !bytes.Equal(got, []byte("secret")) {
		t.Errorf("duplicates+distinct failed: %v %q", err, got)
	}
}

func TestKMinusOneSharesRevealNothing(t *testing.T) {
	// Information-theoretic check: with k-1 shares fixed, every candidate
	// secret byte is consistent with some polynomial. We verify the weaker
	// statistical property that the share bytes of two different secrets
	// are identically distributed by comparing byte histograms.
	const trials = 2000
	counts0 := make([]int, 256)
	counts1 := make([]int, 256)
	r0, r1 := rng.New(42), rng.New(42)
	for i := 0; i < trials; i++ {
		s0, _ := Split([]byte{0x00}, 2, 3, r0)
		s1, _ := Split([]byte{0xFF}, 2, 3, r1)
		counts0[s0[0].Data[0]]++
		counts1[s1[0].Data[0]]++
	}
	// chi-square-ish: no byte value should dominate for either secret
	for v := 0; v < 256; v++ {
		if counts0[v] > trials/16 || counts1[v] > trials/16 {
			t.Fatalf("share byte value %d appears too often (secret leak?)", v)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	r := rng.New(6)
	if _, err := Split([]byte("x"), 0, 5, r); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Split([]byte("x"), 6, 5, r); err == nil {
		t.Error("n<k should error")
	}
	if _, err := Split([]byte("x"), 2, 300, r); err == nil {
		t.Error("n>255 should error")
	}
	if _, err := Split(nil, 2, 5, r); err == nil {
		t.Error("empty secret should error")
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := Combine([]Share{{X: 1, Data: []byte{1}}}, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Combine([]Share{{X: 0, Data: []byte{1}}}, 1); err == nil {
		t.Error("x=0 share should error")
	}
	bad := []Share{{X: 1, Data: []byte{1, 2}}, {X: 2, Data: []byte{1}}}
	if _, err := Combine(bad, 2); !errors.Is(err, ErrInconsistent) {
		t.Errorf("inconsistent lengths should error, got %v", err)
	}
}

func TestK1IsReplication(t *testing.T) {
	// With k=1 the polynomial is constant: every share equals the secret.
	r := rng.New(7)
	secret := []byte{9, 8, 7}
	shares, err := Split(secret, 1, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		if !bytes.Equal(s.Data, secret) {
			t.Errorf("k=1 share %d differs from secret", s.X)
		}
	}
}
