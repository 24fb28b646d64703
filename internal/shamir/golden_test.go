package shamir

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lemonade/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenScenario is one (secret length, k, n, seed) row of a golden grid.
type goldenScenario struct {
	secretLen, k, n int
	seed            uint64
}

// The golden files pin the exact output bytes of Split and Combine for a
// grid of (secret, k, n) scenarios at fixed RNG seeds, per scheme; the
// wide grid includes odd-length secrets that exercise padding. They were
// generated from the pre-kernel scalar implementations of each field; the
// slice-kernel and generic rewrites must reproduce them bit for bit (field
// arithmetic is exact, so any divergence is a bug, not rounding).
func TestGoldenSplitCombine(t *testing.T) {
	t.Run("narrow", func(t *testing.T) {
		checkGolden(t, "shamir.golden", goldenDigests(t, Narrow, []goldenScenario{
			{1, 1, 1, 1},
			{1, 2, 3, 2},
			{32, 2, 3, 42},
			{32, 15, 141, 42},
			{33, 5, 5, 7},
			{64, 8, 20, 99},
			{7, 255, 255, 13},
		}, func(h hash.Hash, s Share) {
			h.Write([]byte{s.X})
			h.Write(s.Data)
		}))
	})
	t.Run("wide", func(t *testing.T) {
		checkGolden(t, "shamir16.golden", goldenDigests(t, Wide, []goldenScenario{
			{1, 1, 1, 1},
			{2, 2, 3, 2},
			{32, 2, 3, 42},
			{33, 5, 400, 42},
			{32, 40, 1000, 7},
			{64, 8, 20, 99},
		}, func(h hash.Hash, s ShareOf[uint16]) {
			fmt.Fprintf(h, "%d|%t|", s.X, s.Padded)
			for _, w := range s.Data {
				fmt.Fprintf(h, "%04x", w)
			}
		}))
	})
}

// goldenDigests hashes each scenario's shares (through hashShare, the
// scheme's recorded share encoding) and its reconstruction.
func goldenDigests[E Elem](t *testing.T, s *Scheme[E], scenarios []goldenScenario, hashShare func(hash.Hash, ShareOf[E])) string {
	t.Helper()
	var b strings.Builder
	for _, sc := range scenarios {
		secret := make([]byte, sc.secretLen)
		for i := range secret {
			secret[i] = byte(i*37 + 11)
		}
		r := rng.New(sc.seed)
		shares, err := s.Split(secret, sc.k, sc.n, r)
		if err != nil {
			t.Fatalf("Split(%d,%d,%d): %v", sc.secretLen, sc.k, sc.n, err)
		}
		h := sha256.New()
		for _, sh := range shares {
			hashShare(h, sh)
		}
		// Post-split RNG state is part of the contract: the rewrite must
		// draw exactly the same number of values in the same order.
		for _, w := range r.State() {
			fmt.Fprintf(h, "%016x", w)
		}
		fmt.Fprintf(&b, "split/%d/%d/%d/%d %s\n", sc.secretLen, sc.k, sc.n, sc.seed, hex.EncodeToString(h.Sum(nil)))

		// Combine from the LAST k shares, reversed, with a duplicate of
		// the first picked share appended (dedup must ignore it).
		pick := make([]ShareOf[E], 0, sc.k+1)
		for i := len(shares) - 1; i >= len(shares)-sc.k; i-- {
			pick = append(pick, shares[i])
		}
		pick = append(pick, shares[len(shares)-1])
		got, err := s.Combine(pick, sc.k)
		if err != nil {
			t.Fatalf("Combine(%d,%d,%d): %v", sc.secretLen, sc.k, sc.n, err)
		}
		sum := sha256.Sum256(got)
		fmt.Fprintf(&b, "combine/%d/%d/%d/%d %s\n", sc.secretLen, sc.k, sc.n, sc.seed, hex.EncodeToString(sum[:]))
	}
	return b.String()
}

// checkGolden compares got against testdata/name, rewriting it first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}
