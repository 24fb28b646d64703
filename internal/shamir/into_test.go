package shamir

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"lemonade/internal/rng"
)

func TestSplitIntoMatchesSplit(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testSplitIntoMatchesSplit(t, Narrow, []int{48}) })
	t.Run("wide", func(t *testing.T) { testSplitIntoMatchesSplit(t, Wide, []int{1, 2, 31, 64}) })
}

func testSplitIntoMatchesSplit[E Elem](t *testing.T, s *Scheme[E], lens []int) {
	for _, secretLen := range lens {
		secret := make([]byte, secretLen)
		for i := range secret {
			secret[i] = byte(i * 5)
		}
		want, err := s.Split(secret, 6, 19, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		// Destination with stale X and Padded values and a mix of nil,
		// short, and oversized dirty Data buffers.
		shares := make([]ShareOf[E], 19)
		for i := range shares {
			shares[i].X = 0xEE
			shares[i].Padded = true
			if i%2 == 0 {
				shares[i].Data = make([]E, 3+i*7)
				for j := range shares[i].Data {
					shares[i].Data[j] = 0xDB
				}
			}
		}
		if err := s.SplitInto(secret, shares, 6, 19, rng.New(77)); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if shares[i].X != want[i].X || shares[i].Padded != want[i].Padded || !slices.Equal(shares[i].Data, want[i].Data) {
				t.Fatalf("len=%d: share %d differs between Split and SplitInto", secretLen, i)
			}
		}
	}
}

func TestCombineIntoMatchesCombine(t *testing.T) {
	t.Run("narrow", func(t *testing.T) { testCombineIntoMatchesCombine(t, Narrow, []int{31}) })
	t.Run("wide", func(t *testing.T) { testCombineIntoMatchesCombine(t, Wide, []int{1, 2, 31, 64}) })
}

func testCombineIntoMatchesCombine[E Elem](t *testing.T, s *Scheme[E], lens []int) {
	for _, secretLen := range lens {
		secret := make([]byte, secretLen)
		for i := range secret {
			secret[i] = byte(i*11 + 3)
		}
		shares, err := s.Split(secret, 5, 12, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		pick := []ShareOf[E]{shares[11], shares[3], shares[11], shares[7], shares[0], shares[9], shares[2]}
		want, err := s.Combine(pick, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, secret) {
			t.Fatalf("len=%d: Combine did not round-trip", secretLen)
		}
		dst := bytes.Repeat([]byte{0xDB}, len(secret)+9)
		n, err := s.CombineInto(pick, 5, dst)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) || !bytes.Equal(dst[:n], want) {
			t.Fatalf("len=%d: CombineInto differs from Combine (n=%d)", secretLen, n)
		}
		for i := n; i < len(dst); i++ {
			if dst[i] != 0xDB {
				t.Fatalf("len=%d: CombineInto wrote past its return length at %d", secretLen, i)
			}
		}
	}
}

func TestIntoErrors(t *testing.T) {
	secret := []byte{1, 2, 3}
	if err := Narrow.SplitInto(secret, make([]Share, 4), 2, 5, rng.New(1)); err == nil {
		t.Error("SplitInto accepted a destination shorter than n")
	}
	shares, err := Split(secret, 3, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Narrow.CombineInto(shares, 3, make([]byte, 2)); err == nil {
		t.Error("CombineInto accepted a too-short dst")
	}
	if _, err := Narrow.CombineInto(shares[:2], 3, make([]byte, 3)); err == nil {
		t.Error("CombineInto accepted too few shares")
	}
}

func TestIntoNoAllocsSteadyState(t *testing.T) {
	// The wide secret has odd length, which exercises the padding path.
	t.Run("narrow", func(t *testing.T) { testIntoNoAllocs(t, Narrow, 64, 8, 24) })
	t.Run("wide", func(t *testing.T) { testIntoNoAllocs(t, Wide, 33, 6, 50) })
}

func testIntoNoAllocs[E Elem](t *testing.T, s *Scheme[E], secretLen, k, n int) {
	secret := make([]byte, secretLen)
	for i := range secret {
		secret[i] = byte(i)
	}
	shares := make([]ShareOf[E], n)
	r := rng.New(99)
	if err := s.SplitInto(secret, shares, k, n, r); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(secret))
	if a := testing.AllocsPerRun(200, func() {
		if err := s.SplitInto(secret, shares, k, n, r); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 {
		t.Errorf("SplitInto steady state allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := s.CombineInto(shares, k, dst); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 {
		t.Errorf("CombineInto steady state allocates %v times per call", a)
	}
}

// TestWideSplitConcurrentWidths runs Wide splits of widths with different
// FFT dimensions m (the bit length of n) on several goroutines at once, so
// the scratch free list hands working sets, and the FFT tables in them,
// back and forth between widths. Every split must equal the serial split
// for its seed.
func TestWideSplitConcurrentWidths(t *testing.T) {
	shapes := []struct{ k, n int }{{1, 1}, {2, 3}, {5, 50}, {40, 300}, {114, 1131}, {64, 5000}}
	secret := []byte("wide concurrent secret")
	want := make([][]ShareOf[uint16], len(shapes))
	for i, sh := range shapes {
		var err error
		if want[i], err = Wide.Split(secret, sh.k, sh.n, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 6, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (g + round) % len(shapes)
				sh := shapes[i]
				got, err := Wide.Split(secret, sh.k, sh.n, rng.New(uint64(i)))
				if err != nil {
					t.Error(err)
					return
				}
				for j := range got {
					if got[j].X != want[i][j].X || !slices.Equal(got[j].Data, want[i][j].Data) {
						t.Errorf("worker %d, %d-of-%d: share %d differs from the serial split", g, sh.k, sh.n, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSplitSharesOneBackingArray pins Split's allocation count at the
// wide-memory shape (a 16-byte secret, 114-of-1131): the share headers and
// one backing array for every share's Data, not one array per share. It
// also pins the windows' capacity seal: appending to one share must not
// write into the next.
func TestSplitSharesOneBackingArray(t *testing.T) {
	secret := make([]byte, 16)
	for i := range secret {
		secret[i] = byte(i*37 + 11)
	}
	r := rng.New(7)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := Wide.Split(secret, 114, 1131, r); err != nil {
			t.Fatal(err)
		}
	}); a > 3 {
		t.Errorf("Wide.Split(16 B, 114, 1131) allocates %v times per call, want <= 3", a)
	}
	shares, err := Wide.Split(secret, 114, 1131, r)
	if err != nil {
		t.Fatal(err)
	}
	next := slices.Clone(shares[1].Data)
	shares[0].Data = append(shares[0].Data, 0xffff)
	if !slices.Equal(shares[1].Data, next) {
		t.Fatalf("append to shares[0].Data changed shares[1].Data: %v, was %v", shares[1].Data, next)
	}
}

// FuzzSplitCombineInto cross-checks the destination-buffer paths against
// the allocating wrappers: equal RNG states and inputs must produce
// identical shares and reconstructions.
func FuzzSplitCombineInto(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint64(42), []byte("secret material"))
	f.Add(uint8(1), uint8(1), uint64(0), []byte{0})
	f.Add(uint8(40), uint8(90), uint64(7), []byte("x"))
	f.Fuzz(func(t *testing.T, kb, nb uint8, seed uint64, secret []byte) {
		k := int(kb)%32 + 1
		n := k + int(nb)%32
		if len(secret) == 0 {
			secret = []byte{0x42}
		}
		want, err := Split(secret, k, n, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		shares := make([]Share, n)
		if err := Narrow.SplitInto(secret, shares, k, n, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if shares[i].X != want[i].X || !bytes.Equal(shares[i].Data, want[i].Data) {
				t.Fatalf("share %d differs between Split and SplitInto", i)
			}
		}
		// Reconstruct from a rotated window of k shares plus a duplicate.
		pick := make([]Share, 0, k+1)
		for i := 0; i < k; i++ {
			pick = append(pick, shares[(i+int(seed))%n])
		}
		pick = append(pick, pick[0])
		wantSecret, wantErr := Narrow.Combine(pick, k)
		dst := make([]byte, len(secret))
		gotN, gotErr := Narrow.CombineInto(pick, k, dst)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Combine err=%v, CombineInto err=%v", wantErr, gotErr)
		}
		if wantErr == nil {
			if gotN != len(wantSecret) || !bytes.Equal(dst[:gotN], wantSecret) {
				t.Fatal("CombineInto output differs from Combine")
			}
			if !bytes.Equal(wantSecret, secret) {
				t.Fatal("round-trip failed")
			}
		}
	})
}
