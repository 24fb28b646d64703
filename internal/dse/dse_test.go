package dse

import (
	"context"
	"errors"
	"math"
	"testing"

	"lemonade/internal/nems"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/structure"
	"lemonade/internal/weibull"
)

func connSpec(alpha, beta, kFrac float64) Spec {
	return Spec{
		Dist:     weibull.MustNew(alpha, beta),
		Criteria: reliability.DefaultCriteria,
		LAB:      91_250,
		KFrac:    kFrac,
	}
}

func TestSpecValidation(t *testing.T) {
	s := connSpec(14, 8, 0.1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.LAB = 0
	if bad.Validate() == nil {
		t.Error("LAB=0 should be invalid")
	}
	bad = s
	bad.KFrac = 1
	if bad.Validate() == nil {
		t.Error("KFrac=1 should be invalid")
	}
	bad = s
	bad.UpperBound = 100
	if bad.Validate() == nil {
		t.Error("UpperBound < LAB should be invalid")
	}
	bad = s
	bad.Criteria = reliability.Criteria{}
	if bad.Validate() == nil {
		t.Error("zero criteria should be invalid")
	}
}

func TestExplorePaperAnchor141(t *testing.T) {
	// §4.3.2: α=14, β=8, k=10%·n → "each parallel structure has 141 NEMS
	// switches" and "the total number of NEMS switches is 0.8 million".
	d, err := Explore(connSpec(14, 8, 0.10))
	if err != nil {
		t.Fatal(err)
	}
	if d.N < 110 || d.N > 180 {
		t.Errorf("per-structure n = %d, paper says 141", d.N)
	}
	if d.TotalDevices < 600_000 || d.TotalDevices > 1_100_000 {
		t.Errorf("total devices = %d, paper says ~0.8 million", d.TotalDevices)
	}
	if d.K != int(math.Ceil(0.10*float64(d.N))) {
		t.Errorf("k = %d inconsistent with 10%% of n=%d", d.K, d.N)
	}
}

func TestDesignMeetsItsOwnGuarantees(t *testing.T) {
	d, err := Explore(connSpec(14, 8, 0.10))
	if err != nil {
		t.Fatal(err)
	}
	if d.WorkProb < d.Spec.Criteria.MinWork {
		t.Errorf("WorkProb %g below MinWork", d.WorkProb)
	}
	if d.OverrunProb > d.Spec.Criteria.MaxOverrun {
		t.Errorf("OverrunProb %g above MaxOverrun", d.OverrunProb)
	}
	if d.GuaranteedMinAccesses() < d.Spec.LAB {
		t.Errorf("guaranteed %d accesses < LAB %d", d.GuaranteedMinAccesses(), d.Spec.LAB)
	}
	if d.MaxAllowedAccesses() < d.GuaranteedMinAccesses() {
		t.Error("max allowed below guaranteed min")
	}
}

func TestEncodingReducesDevicesByOrdersOfMagnitude(t *testing.T) {
	// The abstract's headline: encoding turns exponential α-sensitivity
	// into linear, cutting device count by ≥4 orders of magnitude at
	// α=14, β=8.
	noEnc, err := Explore(connSpec(14, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Explore(connSpec(14, 8, 0.10))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(noEnc.TotalDevices) / float64(enc.TotalDevices)
	if ratio < 1e4 {
		t.Errorf("encoding saves only %.1fx, paper says ≥4 orders of magnitude (noEnc=%d, enc=%d)",
			ratio, noEnc.TotalDevices, enc.TotalDevices)
	}
}

func TestUnencodedExponentialVsEncodedLinear(t *testing.T) {
	alphas := []float64{10, 12, 14, 16, 18, 20}
	noEnc := SweepAlpha(connSpec(10, 8, 0), alphas)
	enc := SweepAlpha(connSpec(10, 8, 0.10), alphas)
	// growth factor over the sweep
	growth := func(pts []SweepPoint) float64 {
		var first, last float64
		for _, p := range pts {
			if p.Feasible {
				if first == 0 {
					first = float64(p.Design.TotalDevices)
				}
				last = float64(p.Design.TotalDevices)
			}
		}
		if first == 0 {
			return 0
		}
		return last / first
	}
	gNo, gEnc := growth(noEnc), growth(enc)
	if gNo < 100 {
		t.Errorf("unencoded growth over α∈[10,20] = %.1fx, expected exponential (>100x)", gNo)
	}
	if gEnc > 20 {
		t.Errorf("encoded growth over α∈[10,20] = %.1fx, expected roughly linear (<20x)", gEnc)
	}
	if gEnc <= 0 {
		t.Fatal("no feasible encoded designs in the sweep")
	}
}

func TestLargerBetaNeedsFewerDevices(t *testing.T) {
	// Fig 4a: with large β devices are consistent, so small structures
	// suffice; small β needs dramatically more.
	var prev int = -1
	for _, beta := range []float64{16, 12, 10, 8} {
		d, err := Explore(connSpec(14, beta, 0))
		if err != nil {
			t.Fatalf("β=%g infeasible: %v", beta, err)
		}
		if prev > 0 && d.TotalDevices < prev {
			t.Errorf("β=%g needs fewer devices (%d) than a larger β (%d)", beta, d.TotalDevices, prev)
		}
		prev = d.TotalDevices
	}
}

func TestEncodingToleratesLowBeta(t *testing.T) {
	// Fig 4b includes β=4 — only tractable with encoding.
	d, err := Explore(connSpec(14, 4, 0.10))
	if err != nil {
		t.Fatalf("encoded β=4 should be feasible: %v", err)
	}
	if d.TotalDevices <= 0 {
		t.Error("bogus design")
	}
	// and it costs more devices than β=8 (more variation to control)
	d8, _ := Explore(connSpec(14, 8, 0.10))
	if d.TotalDevices <= d8.TotalDevices {
		t.Errorf("β=4 (%d devices) should cost more than β=8 (%d)", d.TotalDevices, d8.TotalDevices)
	}
}

func TestHigherKFracDiminishingReturns(t *testing.T) {
	// §4.3.2: moving k from 10% to 20% helps; 30% is negligible further.
	// Integer per-copy targets quantize this comparison badly (a k-fraction
	// can land with almost no margin to the nearest integer access), so use
	// the paper's continuous-time methodology here.
	cont := func(kFrac float64) Spec {
		s := connSpec(14, 8, kFrac)
		s.ContinuousT = true
		return s
	}
	d10, err1 := Explore(cont(0.10))
	d20, err2 := Explore(cont(0.20))
	d30, err3 := Explore(cont(0.30))
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	// all should be within a small factor of each other
	lo := math.Min(float64(d10.TotalDevices), math.Min(float64(d20.TotalDevices), float64(d30.TotalDevices)))
	hi := math.Max(float64(d10.TotalDevices), math.Max(float64(d20.TotalDevices), float64(d30.TotalDevices)))
	if hi/lo > 3 {
		t.Errorf("k-fraction choices vary too much: 10%%=%d 20%%=%d 30%%=%d",
			d10.TotalDevices, d20.TotalDevices, d30.TotalDevices)
	}
}

func TestRelaxedCriteriaReduceDevices(t *testing.T) {
	// Fig 4c: relaxing overrun p from 1% to 10% cuts the device count
	// (paper: by ~40%) and raises the empirical upper bound.
	strict := connSpec(14, 8, 0.10)
	relaxed := strict
	relaxed.Criteria = reliability.Criteria{MinWork: 0.99, MaxOverrun: 0.10}
	ds, err := Explore(strict)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Explore(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if dr.TotalDevices >= ds.TotalDevices {
		t.Errorf("relaxed criteria should need fewer devices: %d vs %d", dr.TotalDevices, ds.TotalDevices)
	}
	meanS, _ := ds.System().ExpectedTotalAccesses()
	meanR, _ := dr.System().ExpectedTotalAccesses()
	if meanR < meanS {
		t.Errorf("relaxed design should allow more expected accesses: %g vs %g", meanR, meanS)
	}
}

func TestStrongerPasscodeTargetsReduceDevices(t *testing.T) {
	// Fig 4d: upper-bound targets of 100k/200k (software rejects popular
	// passwords) dramatically cut the device count vs the 91,250 baseline.
	base := connSpec(14, 8, 0.10)
	up100 := base
	up100.UpperBound = 100_000
	up200 := base
	up200.UpperBound = 200_000
	d0, err0 := Explore(base)
	d1, err1 := Explore(up100)
	d2, err2 := Explore(up200)
	if err0 != nil || err1 != nil || err2 != nil {
		t.Fatal(err0, err1, err2)
	}
	if !(d2.TotalDevices <= d1.TotalDevices && d1.TotalDevices < d0.TotalDevices) {
		t.Errorf("looser upper bounds should monotonically cut devices: base=%d 100k=%d 200k=%d",
			d0.TotalDevices, d1.TotalDevices, d2.TotalDevices)
	}
	if d2.MaxAllowedAccesses() > 200_000 {
		t.Errorf("design exceeds its upper-bound target: %d", d2.MaxAllowedAccesses())
	}
}

func TestTargetingSystemSmallBound(t *testing.T) {
	// §5: LAB=100. Encoded designs need orders of magnitude fewer devices
	// than the connection use case.
	spec := Spec{
		Dist:        weibull.MustNew(10, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         100,
		KFrac:       0.10,
		ContinuousT: true,
	}
	d, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	// paper: ~810 switches at α=10, β=8, k=10%·n
	if d.TotalDevices < 200 || d.TotalDevices > 5000 {
		t.Errorf("targeting total = %d, paper says ~810", d.TotalDevices)
	}
	conn, _ := Explore(connSpec(10, 8, 0.10))
	if d.TotalDevices*50 > conn.TotalDevices {
		t.Error("targeting should be far cheaper than the connection")
	}
}

func TestInfeasibleReturnsError(t *testing.T) {
	// β=1 (huge variation) without encoding and strict criteria is
	// infeasible: single-device reliability cannot cliff.
	spec := Spec{
		Dist:     weibull.MustNew(10, 1),
		Criteria: reliability.DefaultCriteria,
		LAB:      1000,
		KFrac:    0,
	}
	_, err := Explore(spec)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestDesignCostAccessors(t *testing.T) {
	d, err := Explore(connSpec(14, 8, 0.10))
	if err != nil {
		t.Fatal(err)
	}
	if d.Area(256) <= 0 {
		t.Error("area should be positive")
	}
	// §4.3.2: 141-device structure → ~1.41e-18 J per access
	e := float64(d.EnergyPerAccess())
	if e < 1e-18 || e > 2e-18 {
		t.Errorf("energy per access = %g J, paper says ~1.41e-18", e)
	}
	if d.LatencyPerAccess().Ns() != 10 {
		t.Errorf("latency = %g ns", d.LatencyPerAccess().Ns())
	}
	if d.String() == "" {
		t.Error("String empty")
	}
	noEnc, _ := Explore(connSpec(14, 12, 0))
	if noEnc.Area(256) <= 0 {
		t.Error("unencoded area should be positive")
	}
}

func TestMonteCarloValidatesDesign(t *testing.T) {
	// Build the actual simulated hardware for a small design and check the
	// per-copy empirical guarantees.
	spec := Spec{
		Dist:     weibull.MustNew(12, 10),
		Criteria: reliability.DefaultCriteria,
		LAB:      100,
		KFrac:    0.10,
	}
	d, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2029)
	const trials = 2000
	okAtT, aliveAtOver := 0, 0
	for i := 0; i < trials; i++ {
		p, err := structure.NewParallel(spec.Dist, d.N, d.K, r)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for a := 0; a < d.T; a++ {
			if !p.Access(nems.RoomTemp) {
				ok = false
				break
			}
		}
		if ok {
			okAtT++
			// continue to the overrun access
			over := true
			for a := d.T; a < d.UpperT+1; a++ {
				if !p.Access(nems.RoomTemp) {
					over = false
					break
				}
			}
			if over {
				aliveAtOver++
			}
		}
	}
	workFrac := float64(okAtT) / trials
	overFrac := float64(aliveAtOver) / trials
	// The simulator's ceil-discretization only makes devices live slightly
	// longer than the continuous model, so the reliability guarantee must
	// hold with margin; the overrun should stay small (allow 3x).
	if workFrac < d.Spec.Criteria.MinWork-0.02 {
		t.Errorf("empirical work fraction %g below designed %g", workFrac, d.WorkProb)
	}
	if overFrac > 3*d.Spec.Criteria.MaxOverrun+0.02 {
		t.Errorf("empirical overrun %g far above designed %g", overFrac, d.OverrunProb)
	}
}

func TestExploreFrontier(t *testing.T) {
	// Unencoded specs admit a spread of per-copy targets; encoded ones
	// collapse to the straddle point (checked below).
	spec := connSpec(14, 12, 0)
	spec.LAB = 500
	frontier, err := ExploreFrontier(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) < 2 {
		t.Fatalf("expected several feasible targets, got %d", len(frontier))
	}
	// sorted by total devices, all meeting criteria and the LAB
	prev := 0
	seenT := map[int]bool{}
	for _, d := range frontier {
		if d.TotalDevices < prev {
			t.Fatal("frontier not sorted")
		}
		prev = d.TotalDevices
		if d.WorkProb < spec.Criteria.MinWork-1e-9 || d.OverrunProb > spec.Criteria.MaxOverrun+1e-9 {
			t.Errorf("frontier design violates criteria: %+v", d)
		}
		if d.GuaranteedMinAccesses() < spec.LAB {
			t.Errorf("frontier design misses LAB: %+v", d)
		}
		if seenT[d.T] {
			t.Errorf("duplicate per-copy target %d", d.T)
		}
		seenT[d.T] = true
	}
	// frontier[0] matches the integer-T Explore optimum
	intSpec := spec
	intSpec.ContinuousT = false
	best, err := Explore(intSpec)
	if err != nil {
		t.Fatal(err)
	}
	if frontier[0].TotalDevices != best.TotalDevices {
		t.Errorf("frontier[0] = %d devices, Explore = %d", frontier[0].TotalDevices, best.TotalDevices)
	}
	// encoded specs collapse to the single straddle target
	encSpec := connSpec(14, 8, 0.10)
	encSpec.LAB = 500
	encFrontier, err := ExploreFrontier(context.Background(), encSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(encFrontier) != 1 {
		t.Errorf("encoded frontier should be the straddle point, got %d designs", len(encFrontier))
	}
	// infeasible spec errors
	bad := Spec{Dist: weibull.MustNew(10, 1), Criteria: reliability.DefaultCriteria, LAB: 1000}
	if _, err := ExploreFrontier(context.Background(), bad); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}
