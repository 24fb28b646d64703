package weibull

import (
	"math"
	"testing"

	"lemonade/internal/rng"
)

// tablePoints are the device points the survival table must reproduce
// exactly: the e2e paper (α=14) and wide (α=40) points, and the figure
// shapes β = 2.5, 12 and 40.
var tablePoints = []Dist{
	{Alpha: 14, Beta: 8},
	{Alpha: 40, Beta: 8},
	{Alpha: 14, Beta: 2.5},
	{Alpha: 14, Beta: 12},
	{Alpha: 14, Beta: 40},
}

// TestSurvivalTableMatchesSampleCycles draws 5M seeded lifetimes per
// point through the table and through Dist.SampleCycles from equal RNG
// states: every lifetime and the final RNG position must agree.
func TestSurvivalTableMatchesSampleCycles(t *testing.T) {
	draws := 5_000_000
	if testing.Short() {
		draws = 200_000
	}
	for i, d := range tablePoints {
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			tab := NewSurvivalTable(d)
			if tab.n == 0 {
				t.Fatalf("%v got no table", d)
			}
			seed := uint64(100 + i)
			rt, rd := rng.New(seed), rng.New(seed)
			for k := 0; k < draws; k++ {
				if got, want := tab.SampleCycles(rt), d.SampleCycles(rd); got != want {
					t.Fatalf("draw %d: table %d, SampleCycles %d", k, got, want)
				}
			}
			if rt.Uint64() != rd.Uint64() {
				t.Fatal("table and SampleCycles consumed the RNG differently")
			}
		})
	}
}

// TestSurvivalTableThresholdWalk walks ±4096 ulps around every tabulated
// threshold and around both edges of its guard band: wherever the table
// answers it must equal the exact pipeline on the same u, the threshold
// itself must take the exact path, and just outside the band the table
// must answer.
func TestSurvivalTableThresholdWalk(t *testing.T) {
	const walk = 4096
	for _, d := range tablePoints {
		tab := NewSurvivalTable(d)
		if tab.n == 0 {
			t.Fatalf("%v got no table", d)
		}
		var answered, fallback int
		outside := func(u float64) bool {
			for _, th := range tab.t[:tab.n] {
				if math.Abs(u-th) <= 2*guardDelta*th {
					return false
				}
			}
			return u >= minDraw && u < 1
		}
		check := func(u float64) {
			if u < minDraw || u >= 1 {
				return
			}
			got, ok := tab.lookup(u)
			if !ok {
				fallback++
				return
			}
			answered++
			if want := d.cycles(u); got != want {
				t.Fatalf("%v: u=%b: table %d, exact %d", d, u, got, want)
			}
		}
		for m := 1; m < tab.n; m++ {
			th := tab.t[m]
			if th >= minDraw && th < 1 {
				if _, ok := tab.lookup(th); ok {
					t.Fatalf("%v: u = t[%d] = %b answered from the table, want the exact path", d, m, th)
				}
			}
			for _, c := range []float64{th, th * (1 - guardDelta), th * (1 + guardDelta)} {
				lo, hi := c, c
				check(c)
				for k := 0; k < walk; k++ {
					lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
					check(lo)
					check(hi)
				}
			}
			// Well outside every band on both sides the table answers.
			for _, u := range []float64{th * (1 - 4*guardDelta), th * (1 + 4*guardDelta)} {
				if outside(u) {
					if _, ok := tab.lookup(u); !ok {
						t.Fatalf("%v: u=%b outside every band took the exact path", d, u)
					}
				}
			}
		}
		if answered == 0 || fallback == 0 {
			t.Fatalf("%v: walk answered %d from the table and %d exactly, want both", d, answered, fallback)
		}
	}
}

// TestSurvivalTableFallsBack covers the Dists that get no table — a scale
// beyond the table's capacity, a shape below the derived bound, and one
// whose last threshold lies beyond the band's coverage — and checks that
// their draws still equal SampleCycles.
func TestSurvivalTableFallsBack(t *testing.T) {
	for _, d := range []Dist{{Alpha: 1e6, Beta: 8}, {Alpha: 14, Beta: 1.5}, {Alpha: 2, Beta: 40}} {
		tab := NewSurvivalTable(d)
		if tab.n != 0 {
			t.Fatalf("%v built a %d-entry table, want none", d, tab.n)
		}
		rt, rd := rng.New(3), rng.New(3)
		for k := 0; k < 1000; k++ {
			if got, want := tab.SampleCycles(rt), d.SampleCycles(rd); got != want {
				t.Fatalf("%v draw %d: table %d, SampleCycles %d", d, k, got, want)
			}
		}
	}
}

// FuzzCycleTable checks the table against the exact pipeline for any
// valid (α, β), at the draw u made of bits' 53 high bits and at a point
// within ±32768 ulps of one of the table's thresholds, both picked by
// bits.
func FuzzCycleTable(f *testing.F) {
	for _, d := range tablePoints {
		f.Add(uint64(0x8000_0000_0000_0000), d.Alpha, d.Beta)
		f.Add(uint64(0x0000_0000_0000_0800), d.Alpha, d.Beta)
	}
	f.Add(uint64(0xffff_ffff_ffff_ffff), 0.9, 40.0)
	f.Fuzz(func(t *testing.T, bits uint64, alpha, beta float64) {
		d, err := New(alpha, beta)
		if err != nil {
			return
		}
		tab := NewSurvivalTable(d)
		us := []float64{float64(bits>>11) / (1 << 53)}
		if tab.n > 0 {
			th := tab.t[bits%uint64(tab.n)]
			us = append(us, math.Float64frombits(math.Float64bits(th)+uint64(int64(int16(bits>>32)))))
		}
		for _, u := range us {
			if !(u >= minDraw && u < 1) {
				continue
			}
			if got, ok := tab.lookup(u); ok {
				if want := d.cycles(u); got != want {
					t.Fatalf("%v: u=%b: table %d, exact %d", d, u, got, want)
				}
			}
		}
	})
}
