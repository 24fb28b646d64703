package shamir

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"lemonade/internal/rng"
)

// The properties both fields share are written once as generic bodies and
// run per scheme, as subtests "narrow" and "wide".

type kn struct{ k, n int }

func TestSplitCombineRoundTrip(t *testing.T) {
	t.Run("narrow", func(t *testing.T) {
		testRoundTrip(t, Narrow, "the storage decryption key 12345", []kn{{1, 1}, {1, 5}, {2, 3}, {3, 5}, {8, 128}, {30, 60}})
	})
	t.Run("wide", func(t *testing.T) {
		testRoundTrip(t, Wide, "odd length secret", []kn{{1, 1}, {2, 5}, {3, 7}, {30, 1000}})
		testRoundTrip(t, Wide, "even-length secret!!", []kn{{3, 7}})
	})
}

// testRoundTrip reconstructs from a scattered, distinct subset of k shares.
func testRoundTrip[E Elem](t *testing.T, s *Scheme[E], secret string, cases []kn) {
	r := rng.New(1)
	for _, c := range cases {
		shares, err := s.Split([]byte(secret), c.k, c.n, r)
		if err != nil {
			t.Fatalf("Split(k=%d,n=%d): %v", c.k, c.n, err)
		}
		if len(shares) != c.n {
			t.Fatalf("got %d shares, want %d", len(shares), c.n)
		}
		subset := make([]ShareOf[E], 0, c.k)
		for _, i := range r.Perm(c.n)[:c.k] {
			subset = append(subset, shares[i])
		}
		got, err := s.Combine(subset, c.k)
		if err != nil {
			t.Fatalf("Combine: %v", err)
		}
		if string(got) != secret {
			t.Errorf("k=%d n=%d: reconstructed %q, want %q", c.k, c.n, got, secret)
		}
	}
}

func TestCombineAnySubset(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testAnySubset(t, Narrow) })
	t.Run("wide", func(t *testing.T) { testAnySubset(t, Wide) })
}

func testAnySubset[E Elem](t *testing.T, s *Scheme[E]) {
	secret := []byte{0x00, 0xFF, 0x42, 0x17, 0x99}
	const k, n = 3, 7
	shares, err := s.Split(secret, k, n, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for l := j + 1; l < n; l++ {
				got, err := s.Combine([]ShareOf[E]{shares[i], shares[j], shares[l]}, k)
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
	got, err := Narrow.Combine(survivors, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("erasure recovery failed")
	}
}

func TestWideSharingBeyond255(t *testing.T) {
	// The reason the Wide scheme exists: n = 1500 like a β=4 structure.
	secret := []byte("storage decryption key material!")
	shares, err := Wide.Split(secret, 150, 1500, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Wide.Combine(shares[700:850], 150)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("wide reconstruction failed")
	}
	if _, err := Wide.Combine(shares[:149], 150); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("149 shares: expected ErrTooFewShares, got %v", err)
	}
}

func TestTooFewShares(t *testing.T) {
	r := rng.New(4)
	shares, _ := Split([]byte("secret"), 3, 5, r)
	_, err := Narrow.Combine(shares[:2], 3)
	if !errors.Is(err, ErrTooFewShares) {
		t.Errorf("expected ErrTooFewShares, got %v", err)
	}
}

func TestDuplicateSharesDontCount(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testDuplicates(t, Narrow) })
	t.Run("wide", func(t *testing.T) { testDuplicates(t, Wide) })
}

func testDuplicates[E Elem](t *testing.T, s *Scheme[E]) {
	shares, _ := s.Split([]byte("secret"), 3, 5, rng.New(5))
	_, err := s.Combine([]ShareOf[E]{shares[0], shares[0], shares[0]}, 3)
	if !errors.Is(err, ErrTooFewShares) {
		t.Errorf("duplicates should not satisfy the threshold, got %v", err)
	}
	// but duplicates alongside enough distinct shares are fine
	got, err := s.Combine([]ShareOf[E]{shares[0], shares[0], shares[1], shares[2]}, 3)
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
	t.Run("narrow", func(t *testing.T) { testSplitValidation(t, Narrow) })
	t.Run("wide", func(t *testing.T) { testSplitValidation(t, Wide) })
}

func testSplitValidation[E Elem](t *testing.T, s *Scheme[E]) {
	r := rng.New(6)
	if _, err := s.Split([]byte("x"), 0, 5, r); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := s.Split([]byte("x"), 6, 5, r); err == nil {
		t.Error("n<k should error")
	}
	if _, err := s.Split([]byte("x"), 2, s.MaxShares()+1, r); err == nil {
		t.Errorf("n>%d should error", s.MaxShares())
	}
	if _, err := s.Split(nil, 2, 5, r); err == nil {
		t.Error("empty secret should error")
	}
}

func TestCombineValidation(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testCombineValidation(t, Narrow) })
	t.Run("wide", func(t *testing.T) { testCombineValidation(t, Wide) })
}

func testCombineValidation[E Elem](t *testing.T, s *Scheme[E]) {
	if _, err := s.Combine([]ShareOf[E]{{X: 1, Data: []E{1}}}, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := s.Combine([]ShareOf[E]{{X: 0, Data: []E{1}}}, 1); err == nil {
		t.Error("x=0 share should error")
	}
	bad := []ShareOf[E]{{X: 1, Data: []E{1, 2}}, {X: 2, Data: []E{1}}}
	if _, err := s.Combine(bad, 2); !errors.Is(err, ErrInconsistent) {
		t.Errorf("inconsistent lengths should error, got %v", err)
	}
	padMismatch := []ShareOf[E]{{X: 1, Data: []E{1}, Padded: true}, {X: 2, Data: []E{1}}}
	if _, err := s.Combine(padMismatch, 2); !errors.Is(err, ErrInconsistent) {
		t.Errorf("padding mismatch should error, got %v", err)
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

func TestQuickRoundTrip(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testQuickRoundTrip(t, Narrow) })
	t.Run("wide", func(t *testing.T) { testQuickRoundTrip(t, Wide) })
}

func testQuickRoundTrip[E Elem](t *testing.T, s *Scheme[E]) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		rr := rng.New(seed)
		k := 1 + rr.Intn(6)
		n := k + rr.Intn(min(500, s.MaxShares()-k+1))
		shares, err := s.Split(raw, k, n, rr)
		if err != nil {
			return false
		}
		subset := make([]ShareOf[E], k)
		for i, idx := range rr.Perm(n)[:k] {
			subset[i] = shares[idx]
		}
		got, err := s.Combine(subset, k)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWordPacking pins pack's big-endian 16-bit packing, zero low-byte pad
// and padding flag, into both a fresh and a dirty reused buffer, and
// unpack's inverse.
func TestWordPacking(t *testing.T) {
	for n := 1; n <= 9; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		dirty := []uint16{0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF}
		for _, dst := range [][]uint16{nil, dirty} {
			words, padded := pack(dst, b, 2)
			if padded != (n%2 != 0) {
				t.Errorf("padding flag wrong for n=%d", n)
			}
			if len(words) != (n+1)/2 {
				t.Fatalf("n=%d packed into %d words, want %d", n, len(words), (n+1)/2)
			}
			for i, w := range words {
				want := uint16(b[2*i]) << 8
				if 2*i+1 < n {
					want |= uint16(b[2*i+1])
				}
				if w != want {
					t.Errorf("n=%d word %d = %#04x, want %#04x", n, i, w, want)
				}
			}
			back := make([]byte, n)
			if unpack(back, words, 2); !bytes.Equal(back, b) {
				t.Errorf("n=%d: unpack gave %x, want %x", n, back, b)
			}
		}
	}
}
