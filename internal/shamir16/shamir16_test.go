package shamir16

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"lemonade/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct {
		secret string
		k, n   int
	}{
		{"even-length secret!!", 3, 7},
		{"odd length secret", 2, 5},
		{"x", 1, 1},
		{"wide sharing beyond GF(256)", 30, 1000},
	} {
		shares, err := Split([]byte(tc.secret), tc.k, tc.n, r)
		if err != nil {
			t.Fatalf("%q: %v", tc.secret, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("got %d shares, want %d", len(shares), tc.n)
		}
		// reconstruct from a scattered subset
		subset := make([]Share, 0, tc.k)
		for i := 0; i < tc.k; i++ {
			subset = append(subset, shares[(i*7)%tc.n])
		}
		// ensure distinctness for the strided pick
		seen := map[uint16]bool{}
		distinct := subset[:0]
		for _, s := range subset {
			if !seen[s.X] {
				seen[s.X] = true
				distinct = append(distinct, s)
			}
		}
		for i := 0; len(distinct) < tc.k; i++ {
			if !seen[shares[i].X] {
				seen[shares[i].X] = true
				distinct = append(distinct, shares[i])
			}
		}
		got, err := Combine(distinct, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(tc.secret)) {
			t.Errorf("k=%d n=%d: got %q, want %q", tc.k, tc.n, got, tc.secret)
		}
	}
}

func TestWideSharingBeyond255(t *testing.T) {
	// The whole point of this package: n = 1500 like a β=4 structure.
	r := rng.New(2)
	secret := []byte("storage decryption key material!")
	shares, err := Split(secret, 150, 1500, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Combine(shares[700:850], 150)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("wide reconstruction failed")
	}
	// 149 shares must not suffice
	if _, err := Combine(shares[:149], 150); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("expected ErrTooFewShares, got %v", err)
	}
}

func TestValidation(t *testing.T) {
	r := rng.New(3)
	if _, err := Split([]byte("x"), 0, 5, r); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Split([]byte("x"), 6, 5, r); err == nil {
		t.Error("n<k should error")
	}
	if _, err := Split([]byte("x"), 2, 1<<16, r); err == nil {
		t.Error("n>65535 should error")
	}
	if _, err := Split(nil, 1, 1, r); err == nil {
		t.Error("empty secret should error")
	}
	if _, err := Combine([]Share{{X: 0, Data: []uint16{1}}}, 1); err == nil {
		t.Error("x=0 share should error")
	}
	bad := []Share{{X: 1, Data: []uint16{1, 2}}, {X: 2, Data: []uint16{1}}}
	if _, err := Combine(bad, 2); !errors.Is(err, ErrInconsistent) {
		t.Error("inconsistent shapes should error")
	}
	padMismatch := []Share{{X: 1, Data: []uint16{1}, Padded: true}, {X: 2, Data: []uint16{1}}}
	if _, err := Combine(padMismatch, 2); !errors.Is(err, ErrInconsistent) {
		t.Error("padding mismatch should error")
	}
}

func TestDuplicatesDontCount(t *testing.T) {
	r := rng.New(4)
	shares, _ := Split([]byte("secret"), 3, 5, r)
	if _, err := Combine([]Share{shares[0], shares[0], shares[0]}, 3); !errors.Is(err, ErrTooFewShares) {
		t.Error("duplicates satisfied the threshold")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		rr := rng.New(seed)
		k := 1 + rr.Intn(6)
		n := k + rr.Intn(500)
		shares, err := Split(raw, k, n, rr)
		if err != nil {
			return false
		}
		perm := rr.Perm(n)[:k]
		subset := make([]Share, k)
		for i, idx := range perm {
			subset[i] = shares[idx]
		}
		got, err := Combine(subset, k)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWordPacking pins toWordsInto's big-endian packing, zero low-byte
// pad and padding flag, into both a fresh and a dirty reused buffer.
func TestWordPacking(t *testing.T) {
	for n := 1; n <= 9; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		dirty := []uint16{0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF}
		for _, dst := range [][]uint16{nil, dirty} {
			words, padded := toWordsInto(dst, b)
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
		}
	}
}
