// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per exhibit — the benchmark body IS the
// experiment), plus microbenchmarks of the substrates they rest on.
//
//	go test -bench=. -benchmem
package lemonade_test

import (
	"testing"

	"lemonade/internal/baselines"
	"lemonade/internal/core"
	"lemonade/internal/drift"
	"lemonade/internal/dse"
	"lemonade/internal/figures"
	"lemonade/internal/mathx"
	"lemonade/internal/nems"
	"lemonade/internal/otp"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
	"lemonade/internal/shamir16"
	"lemonade/internal/structure"
	"lemonade/internal/timeline"
	"lemonade/internal/weibull"
)

// sink defeats dead-code elimination.
var sink interface{}

// --- One benchmark per paper exhibit --------------------------------------------

func BenchmarkFigure1_WeibullModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure1()
	}
}

func BenchmarkFigure3a_ScaledAlpha(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure3a()
	}
}

func BenchmarkFigure3b_Parallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure3b()
	}
}

func BenchmarkFigure3c_RedundantEncoding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure3c()
	}
}

func BenchmarkFigure4a_ConnectionNoEncoding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure4a()
	}
}

func BenchmarkFigure4b_ConnectionEncoding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure4b()
	}
}

func BenchmarkFigure4c_RelaxedCriteria(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, t := figures.Figure4c()
		sink = []interface{}{f, t}
	}
}

func BenchmarkFigure4d_StrongerPasscodes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure4d()
	}
}

func BenchmarkTable1_AreaCost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Table1()
	}
}

func BenchmarkFigure5a_TargetingNoEncoding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure5a()
	}
}

func BenchmarkFigure5b_TargetingEncoding(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure5b()
	}
}

func BenchmarkFigure8_OTPSuccessKH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, a := figures.Figure8()
		sink = []interface{}{r, a}
	}
}

func BenchmarkFigure9_OTPSuccessAlphaH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, a := figures.Figure9()
		sink = []interface{}{r, a}
	}
}

func BenchmarkFigure10_OTPDensity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.Figure10()
	}
}

func BenchmarkOTPLatencyEnergy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.OTPLatencyEnergy()
	}
}

func BenchmarkConnectionEnergyLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.ConnectionEnergyLatency()
	}
}

func BenchmarkAbstract_HeadlineReduction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.HeadlineReduction()
	}
}

// --- Substrate microbenchmarks ----------------------------------------------------

func BenchmarkWeibullSample(b *testing.B) {
	d := weibull.MustNew(14, 8)
	r := rng.New(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = d.Sample(r)
	}
}

func BenchmarkWeibullFit(b *testing.B) {
	d := weibull.MustNew(14, 8)
	times := d.SampleN(rng.New(2), 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit, err := weibull.FitLifetimes(times)
		if err != nil {
			b.Fatal(err)
		}
		sink = fit
	}
}

func BenchmarkParallelReliability(b *testing.B) {
	d := weibull.MustNew(14, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = structure.ParallelReliability(d, 141, 15, 15)
	}
}

func BenchmarkShamirSplit(b *testing.B) {
	r := rng.New(3)
	secret := make([]byte, 32)
	r.Bytes(secret)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shares, err := shamir.Split(secret, 15, 141, r)
		if err != nil {
			b.Fatal(err)
		}
		sink = shares
	}
}

func BenchmarkShamirCombine(b *testing.B) {
	r := rng.New(4)
	secret := make([]byte, 32)
	r.Bytes(secret)
	shares, err := shamir.Split(secret, 15, 141, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := shamir.Combine(shares[:15], 15)
		if err != nil {
			b.Fatal(err)
		}
		sink = got
	}
}

func BenchmarkArchitectureAccess(b *testing.B) {
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(12, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         1000,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(6)
	arch, err := core.Build(design, []byte("benchmark secret"), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := arch.Access(nems.RoomTemp)
		if err != nil {
			// Worn out mid-benchmark: fabricate a fresh architecture
			// without charging the benchmark for it.
			b.StopTimer()
			arch, err = core.Build(design, []byte("benchmark secret"), r)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		sink = got
	}
}

func BenchmarkOTPFabricateAndRetrieve(b *testing.B) {
	p := otp.Params{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 32, K: 4}
	r := rng.New(7)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pad, _, err := otp.Fabricate(p, 3, r)
		if err != nil {
			b.Fatal(err)
		}
		key, _, err := pad.Retrieve(3, nems.RoomTemp)
		if err == nil {
			sink = key
		}
	}
}

func BenchmarkDSEExploreEncoded(b *testing.B) {
	spec := dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         91_250,
		KFrac:       0.10,
		ContinuousT: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := dse.Explore(spec)
		if err != nil {
			b.Fatal(err)
		}
		sink = d
	}
}

// --- Ablation / extension benches ----------------------------------------------

func BenchmarkAblationContinuousT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.AblationContinuousT()
	}
}

func BenchmarkAblationKFraction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.AblationKFraction()
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.AblationReplication()
	}
}

func BenchmarkAblationSeriesRejection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.SeriesRejection()
	}
}

func BenchmarkExtensionFabricationTradeoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.FabricationTradeoff()
	}
}

func BenchmarkShamir16WideSplit(b *testing.B) {
	r := rng.New(8)
	secret := make([]byte, 32)
	r.Bytes(secret)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shares, err := shamir16.Split(secret, 150, 1500, r)
		if err != nil {
			b.Fatal(err)
		}
		sink = shares
	}
}

func BenchmarkExtensionInvasiveAttack(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.InvasiveAttack()
	}
}

func BenchmarkBinomTailGE(b *testing.B) {
	cases := []struct {
		name string
		n, k int
		p    float64
	}{
		{"exact_small", 141, 15, 0.176},
		{"exact_large", 150_000, 15_000, 0.117},
		{"normal", 1_000_000, 100_000, 0.117},
		{"poisson_sum", 10_000_000, 100, 5e-6},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = mathx.BinomTailGE(c.n, c.k, c.p)
			}
		})
	}
}

func BenchmarkExtensionDefenseComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = figures.DefenseComparison()
	}
}

func BenchmarkDriftCheckLot(b *testing.B) {
	ref := weibull.MustNew(14, 8)
	lifetimes := ref.SampleN(rng.New(9), 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := drift.NewMonitor(ref, 0.10, 0.20, 0.001)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := m.CheckLot(lifetimes)
		if err != nil {
			b.Fatal(err)
		}
		sink = rep
	}
}

func BenchmarkTimelineWeek(b *testing.B) {
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(12, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         100,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	user := timeline.UserModel{MeanDailyUnlocks: 10, TypoRate: 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := timeline.Simulate(design, user, []string{"a", "b"}, 7, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sink = res
	}
}

func BenchmarkOTPReliableChannelSend(b *testing.B) {
	p := otp.Params{Dist: weibull.MustNew(10, 1), Height: 4, Copies: 32, K: 4}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch, err := otp.NewReliableChannel(p, 1, 0, rng.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		got, _ := ch.Send([]byte("bench message"), nems.RoomTemp)
		sink = got
	}
}

func BenchmarkBaselinePUFFingerprint(b *testing.B) {
	p := baselines.NewPUF(512, 0.05, rng.New(10))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = p.Fingerprint(9)
	}
}
