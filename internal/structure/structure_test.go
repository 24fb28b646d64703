package structure

import (
	"math"
	"testing"

	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSeriesBlowup(t *testing.T) {
	// Paper §4.1.2: to halve α with β=12 you need 2^12 = 4096 devices.
	d := weibull.MustNew(10, 12)
	if got := SeriesDevicesForAlphaScale(d, 2); got != 4096 {
		t.Errorf("series blowup = %g, want 4096", got)
	}
}

func TestParallelReliabilityEq6(t *testing.T) {
	d := weibull.MustNew(9.3, 12) // Fig 3b parameters
	// Eq 6 for k=1: 1 - (1 - r)^n
	for _, n := range []int{1, 20, 40, 60} {
		for _, x := range []float64{8, 9.3, 10, 11} {
			r := d.Reliability(x)
			want := 1 - math.Pow(1-r, float64(n))
			if got := ParallelReliability(d, n, 1, x); !almostEq(got, want, 1e-9) {
				t.Errorf("ParallelReliability(n=%d, x=%g) = %g, want %g", n, x, got, want)
			}
		}
	}
}

func TestParallelReliabilityEq8BruteForce(t *testing.T) {
	d := weibull.MustNew(20, 12) // Fig 3c parameters
	n := 60
	for _, k := range []int{1, 10, 20, 30, 60} {
		for _, x := range []float64{15, 20, 22, 25} {
			r := d.Reliability(x)
			var want float64
			for i := k; i <= n; i++ {
				want += choose(n, i) * math.Pow(r, float64(i)) * math.Pow(1-r, float64(n-i))
			}
			if got := ParallelReliability(d, n, k, x); !almostEq(got, want, 1e-8) {
				t.Errorf("Eq8(n=%d,k=%d,x=%g) = %g, brute %g", n, k, x, got, want)
			}
		}
	}
}

func choose(n, k int) float64 {
	res := 1.0
	for i := 0; i < k; i++ {
		res *= float64(n-i) / float64(k-i)
	}
	return res
}

func TestParallelReliabilityEdges(t *testing.T) {
	d := weibull.MustNew(10, 8)
	if ParallelReliability(d, 5, 0, 100) != 1 {
		t.Error("k=0 should always work")
	}
	if ParallelReliability(d, 5, 6, 0.001) != 0 {
		t.Error("k>n should never work")
	}
	if got := ParallelReliability(d, 5, 1, 0); got != 1 {
		t.Errorf("at x=0 structure must work, got %g", got)
	}
}

func TestFig3bParallelPushesEdge(t *testing.T) {
	// Paper Fig 3b: α=9.3, β=12; with 98% reliability the 40-device
	// structure works for the 10th access, only ~2.2% chance at the 11th.
	d := weibull.MustNew(9.3, 12)
	r10 := ParallelReliability(d, 40, 1, 10)
	r11 := ParallelReliability(d, 40, 1, 11)
	if r10 < 0.97 {
		t.Errorf("R(10) with 40 devices = %g, paper says ~0.98", r10)
	}
	if r11 > 0.05 {
		t.Errorf("R(11) with 40 devices = %g, paper says ~0.022", r11)
	}
	// and more devices monotonically improve reliability at the 10th access
	if ParallelReliability(d, 60, 1, 10) < r10 {
		t.Error("more parallel devices should not hurt reliability")
	}
	if ParallelReliability(d, 1, 1, 10) > r10 {
		t.Error("single device should be worse than 40")
	}
}

func TestFig3cEncodingTightensWindow(t *testing.T) {
	// Paper Fig 3c: α=20, β=12, n=60. k=30 gives ~92% for the 20th access
	// and ~2% for the 21st; the 20th access succeeds iff devices survived
	// 19 completed cycles, so evaluate the continuous model at t-1.
	d := weibull.MustNew(20, 12)
	r20 := ParallelReliability(d, 60, 30, 19)
	r21 := ParallelReliability(d, 60, 30, 20)
	if r20 < 0.85 {
		t.Errorf("k=30 R(20) = %g, paper says ~0.92", r20)
	}
	if r21 > 0.05 {
		t.Errorf("k=30 R(21) = %g, paper says ~0.02", r21)
	}
	window := func(k int) float64 {
		// x-span over which reliability falls from 0.99 to 0.01
		lo, hi := 0.0, 64.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if ParallelReliability(d, 60, k, mid) > 0.99 {
				lo = mid
			} else {
				hi = mid
			}
		}
		t99 := lo
		lo, hi = 0.0, 64.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if ParallelReliability(d, 60, k, mid) > 0.01 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo - t99
	}
	if w1, w30 := window(1), window(30); w30 >= w1 {
		t.Errorf("k=30 window (%g) should be narrower than k=1 window (%g)", w30, w1)
	}
}

func TestParallelSimulationMatchesAnalytic(t *testing.T) {
	d := weibull.MustNew(12, 8)
	r := rng.New(23)
	const trials = 4000
	n, k := 30, 5
	x := 10
	alive := 0
	for tr := 0; tr < trials; tr++ {
		p, err := NewParallel(d, n, k, r)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for i := 0; i < x; i++ {
			if !p.Access(nems.RoomTemp) {
				ok = false
				break
			}
		}
		if ok {
			alive++
		}
	}
	emp := float64(alive) / trials
	anaLo := ParallelReliability(d, n, k, float64(x)+1)
	anaHi := ParallelReliability(d, n, k, float64(x)-1)
	if emp < anaLo-0.03 || emp > anaHi+0.03 {
		t.Errorf("parallel empirical %g outside analytic band [%g, %g]", emp, anaLo, anaHi)
	}
}

func TestParallelValidation(t *testing.T) {
	d := weibull.MustNew(10, 8)
	r := rng.New(1)
	if _, err := NewParallel(d, 5, 0, r); err == nil {
		t.Error("k=0 should be rejected")
	}
	if _, err := NewParallel(d, 5, 6, r); err == nil {
		t.Error("k>n should be rejected")
	}
}

func TestParallelAccessSurvivors(t *testing.T) {
	d := weibull.MustNew(1000, 8) // long-lived: all survive early accesses
	r := rng.New(3)
	p, _ := NewParallel(d, 10, 3, r)
	surv := p.AccessSurvivors(nems.RoomTemp)
	if len(surv) != 10 {
		t.Errorf("fresh structure should have all 10 survivors, got %d", len(surv))
	}
	if p.Devices() != 10 {
		t.Error("Devices mismatch")
	}
}

func TestSerialCopiesRouting(t *testing.T) {
	// Two deterministic "copies" built from parallel structures of
	// deterministic switches via a tiny alpha trick is awkward; instead use
	// Series of 1 switch with huge alpha and kill them manually through
	// accesses: use small deterministic lifetimes by constructing parallel
	// structures with alpha chosen so devices die fast.
	d := weibull.MustNew(1000, 8)
	r := rng.New(7)
	c1, _ := NewParallel(d, 2, 1, r)
	c2, _ := NewParallel(d, 2, 1, r)
	sc := NewSerialCopies([]Structure{c1, c2})
	if sc.Devices() != 4 {
		t.Errorf("Devices = %d", sc.Devices())
	}
	if !sc.Alive() {
		t.Error("fresh serial copies should be alive")
	}
	if !sc.Access(nems.RoomTemp) {
		t.Error("first access should succeed")
	}
	if sc.CurrentCopy() != 0 {
		t.Error("should still be on copy 0")
	}
}

func TestSerialCopiesAdvanceAndDie(t *testing.T) {
	// Use very short-lived devices so copies die quickly.
	d := weibull.MustNew(3, 12)
	r := rng.New(11)
	mk := func() Structure {
		p, _ := NewParallel(d, 4, 1, r)
		return p
	}
	sc := NewSerialCopies([]Structure{mk(), mk(), mk()})
	total := CountSuccessfulAccesses(sc, nems.RoomTemp, 1000)
	if total < 3 {
		t.Errorf("3 copies of 4 parallel α=3 devices should give several accesses, got %d", total)
	}
	if sc.Alive() {
		t.Error("all copies should be dead")
	}
	if sc.Access(nems.RoomTemp) {
		t.Error("dead system should refuse access")
	}
	if sc.CurrentCopy() < 2 {
		t.Errorf("should have advanced through copies, at %d", sc.CurrentCopy())
	}
}

func TestCountSuccessfulAccessesRespectsMax(t *testing.T) {
	d := weibull.MustNew(1e9, 8) // effectively immortal
	r := rng.New(13)
	p, _ := NewParallel(d, 2, 1, r)
	if got := CountSuccessfulAccesses(p, nems.RoomTemp, 50); got != 50 {
		t.Errorf("capped count = %d, want 50", got)
	}
}

func TestEmpiricalAccessBoundConcentration(t *testing.T) {
	// The whole point of the parallel construction (Fig 3b): empirical
	// access bounds concentrate near the design target. α=9.3 β=12 n=40
	// should give ~10 accesses with small spread.
	d := weibull.MustNew(9.3, 12)
	r := rng.New(41)
	const trials = 800
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		p, _ := NewParallel(d, 40, 1, r)
		got := float64(CountSuccessfulAccesses(p, nems.RoomTemp, 100))
		sum += got
		sumSq += got * got
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq/trials - mean*mean)
	if mean < 9 || mean > 12.5 {
		t.Errorf("mean empirical bound = %g, want ~10-11", mean)
	}
	if sd > 1.5 {
		t.Errorf("spread too wide: sd = %g", sd)
	}
}
