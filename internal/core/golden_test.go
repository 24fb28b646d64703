package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"testing"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// fabricationGoldens pin what Build and BuildLeveled fabricate, bit for
// bit: each hash covers one seeded architecture's whole trajectory to
// lockout (every outcome, every revealed secret, and for the leveled
// variant every stress count and remap plan) plus its final State, which
// carries every switch's wear and failure cycle and the RNG position.
// A lifetime that moves by one cycle, or a draw made in another order,
// changes the hash. The values were recorded before switches moved into
// per-copy slabs and must never be edited to make a change pass.
var fabricationGoldens = []struct {
	name    string
	alpha   float64
	spares  int // -1 = unleveled Build
	seed    uint64
	want    string
	minRuns int // accesses the trajectory must at least take
}{
	{"paper/seed1", 14, -1, 1, "ac02102dc13d2b262d815557ecc0062ffe0427a0d141d73adcc31c1077499cc0", 500},
	{"paper/seed42", 14, -1, 42, "7f3f5d3d6f86cd3723cdbece56dcb97d617a88d37bd1e9f210665ad108b48ff2", 500},
	{"leveled/seed1", 14, 4, 1, "81f785f7b3fc686c311fc4c803bed67dc9a91f1a6d8b639449df661a639f1cb8", 100},
	{"leveled/seed42", 14, 4, 42, "c7ce191276ef3a6b9f76502e5daa77d32fe56d95a7074a8f90ebc6da1fb6cb5b", 100},
	{"wide/seed1", 40, -1, 1, "a2011437ecd6a6ba33da43e9cafc1898f774b1a455bd84f84190923ffdc40048", 500},
	{"wide/seed42", 40, -1, 42, "90f5e699023182448c23a3316a4f28bdbc08a1217041437b09e743d7058de338", 500},
}

// goldenDesign is the design the daemon explores for a β=8, LAB-1000,
// 10%-encoded spec at the given α: the paper point at α=14 (67 copies of
// 140 switches) and the wide point at α=40 (23 copies of 1,131).
func goldenDesign(t *testing.T, alpha float64) dse.Design {
	t.Helper()
	d, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(alpha, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         1000,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// trajectoryHash drives a to lockout and hashes what it observed. A
// leveled architecture takes a hot stress burst on shares 0–2 before
// every third access, with each pending remap retired and applied the
// way the registry does it.
func trajectoryHash(t *testing.T, a *Architecture) (string, int) {
	t.Helper()
	h := sha256.New()
	_, leveled := a.Leveling()
	accesses := 0
	for ; accesses < 1_000_000; accesses++ {
		if leveled && accesses%3 == 0 {
			n, err := a.Stress(nems.Environment{TempCelsius: 400}, []int{0, 1, 2}, 1)
			if errors.Is(err, ErrExhausted) {
				fmt.Fprintln(h, "stress-exhausted")
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "stress %d\n", n)
			applyPendingRemap(t, h, a)
		}
		secret, err := a.Access(nems.RoomTemp)
		switch {
		case err == nil:
			fmt.Fprintf(h, "ok %x\n", secret)
		case errors.Is(err, ErrExhausted):
			fmt.Fprintln(h, "exhausted")
		case errors.Is(err, ErrTransient), errors.Is(err, ErrDecodeFailed):
			fmt.Fprintf(h, "fail %v\n", err)
		default:
			t.Fatal(err)
		}
		if leveled {
			applyPendingRemap(t, h, a)
		}
		if errors.Is(err, ErrExhausted) {
			break
		}
	}
	st, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(st)
	return hex.EncodeToString(h.Sum(nil)), accesses
}

// applyPendingRemap retires and applies the plan the schedule calls for,
// if any, and hashes it.
func applyPendingRemap(t *testing.T, h hash.Hash, a *Architecture) {
	t.Helper()
	plan, ok := a.PendingRemap()
	if !ok {
		return
	}
	fmt.Fprintf(h, "remap %d %v %v\n", plan.Copy, plan.Retire, plan.Assign)
	for _, p := range plan.Retire {
		if err := a.Retire(plan.Copy, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ApplyRemap(plan.Copy, plan.Assign); err != nil {
		t.Fatal(err)
	}
}

func TestFabricationGolden(t *testing.T) {
	secret := []byte("fabrication golden secret 0123456")
	designs := map[float64]dse.Design{}
	for _, g := range fabricationGoldens {
		t.Run(g.name, func(t *testing.T) {
			d, ok := designs[g.alpha]
			if !ok {
				d = goldenDesign(t, g.alpha)
				designs[g.alpha] = d
			}
			var a *Architecture
			var err error
			if g.spares < 0 {
				a, err = Build(d, secret, rng.New(g.seed))
			} else {
				a, err = BuildLeveled(d, secret, Leveling{Spares: g.spares, Epoch: 8}, rng.New(g.seed))
			}
			if err != nil {
				t.Fatal(err)
			}
			got, runs := trajectoryHash(t, a)
			if runs < g.minRuns {
				t.Errorf("trajectory locked out after %d accesses, want at least %d", runs, g.minRuns)
			}
			if got != g.want {
				t.Errorf("%d-of-%d x%d design: trajectory hash %s, want %s", d.K, d.N, d.Copies, got, g.want)
			}
		})
	}
}
