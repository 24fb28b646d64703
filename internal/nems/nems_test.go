package nems

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

func TestDeterministicSwitchLifetime(t *testing.T) {
	s := FabricateDeterministic(3)
	for i := 0; i < 3; i++ {
		if err := s.Actuate(RoomTemp); err != nil {
			t.Fatalf("actuation %d failed early: %v", i+1, err)
		}
	}
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Errorf("4th actuation of 3-cycle switch should fail, got %v", err)
	}
	if s.Working() {
		t.Error("switch should report failed")
	}
	if s.FailedAt() != 4 {
		t.Errorf("FailedAt = %d, want 4", s.FailedAt())
	}
	if st := s.State(); st.Actuated != 4 || st.FailCycle != 4 {
		t.Errorf("State = %+v, want 4 actuations failing on the 4th", st)
	}
}

// TestStateRoundTrip pins the 24-byte layout's encoding of failure: a
// captured state, working or failed, restores onto a fresh switch with
// the same State, Working, FailedAt and String, and the restored switch
// fails (or keeps failing) exactly as the original does.
func TestStateRoundTrip(t *testing.T) {
	for _, actuations := range []int{0, 2, 3, 5} {
		s := FabricateDeterministic(3)
		for i := 0; i < actuations; i++ {
			_ = s.ActuateBy(1)
		}
		r := FabricateDeterministic(3)
		r.RestoreState(s.State())
		if r.State() != s.State() || r.Working() != s.Working() || r.FailedAt() != s.FailedAt() || r.String() != s.String() {
			t.Fatalf("after %d actuations: restored %v %+v, original %v %+v", actuations, r, r.State(), s, s.State())
		}
		if errR, errS := r.ActuateBy(1), s.ActuateBy(1); errR != errS || r.State() != s.State() {
			t.Fatalf("after %d actuations: next actuation diverged: %v %+v vs %v %+v", actuations, errR, r.State(), errS, s.State())
		}
	}
}

// TestStateReachable pins which states some actuation history produces:
// a working switch at any count, or a failed one whose failure cycle is
// its final count.
func TestStateReachable(t *testing.T) {
	for _, tc := range []struct {
		st   State
		want bool
	}{
		{State{}, true},
		{State{Wear: 2.5, Actuated: 2}, true},
		{State{Actuated: 4, FailCycle: 4}, true},
		{State{Actuated: 0, FailCycle: 3}, false},
		{State{Actuated: 5, FailCycle: 4}, false},
		{State{Actuated: failedBit}, false},
		{State{Actuated: failedBit | 4, FailCycle: failedBit | 4}, false},
	} {
		if got := tc.st.Reachable(); got != tc.want {
			t.Errorf("%+v.Reachable() = %v, want %v", tc.st, got, tc.want)
		}
	}
}

func TestFailedSwitchStaysFailed(t *testing.T) {
	s := FabricateDeterministic(1)
	_ = s.Actuate(RoomTemp)
	_ = s.Actuate(RoomTemp)
	count := s.actuated
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Error("failed switch should keep returning ErrFailed")
	}
	if s.actuated != count {
		t.Error("actuating a failed switch should not advance the counter")
	}
}

func TestZeroLifetimeFailsImmediately(t *testing.T) {
	s := FabricateDeterministic(0)
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Error("an infant-mortality switch must fail on its first actuation")
	}
}

func TestOneTimeSwitch(t *testing.T) {
	// The forward-secrecy primitive: works exactly once.
	s := FabricateDeterministic(1)
	if err := s.Actuate(RoomTemp); err != nil {
		t.Fatal("one-time switch must conduct its single access")
	}
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Error("one-time switch must fail on the second access")
	}
}

func TestLifetimeMatchesWeibull(t *testing.T) {
	// Empirical mean failure cycle of fabricated switches should track the
	// distribution mean.
	d := weibull.MustNew(20, 8)
	r := rng.New(11)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		s := Fabricate(d, r)
		for s.Actuate(RoomTemp) == nil {
		}
		sum += float64(s.FailedAt())
	}
	mean := sum / n
	// FailedAt is ceil(lifetime)+1-ish; allow a ±1.5 cycle band around Mean.
	if math.Abs(mean-d.Mean()) > 1.5 {
		t.Errorf("empirical mean failure cycle %g vs distribution mean %g", mean, d.Mean())
	}
}

func TestHighTemperatureAcceleratesWearout(t *testing.T) {
	d := weibull.MustNew(100, 8)
	rHot, rCold := rng.New(5), rng.New(5) // identical lifetimes
	hot := Environment{TempCelsius: 500}
	var hotSum, roomSum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sh := Fabricate(d, rHot)
		sr := Fabricate(d, rCold)
		for sh.Actuate(hot) == nil {
		}
		for sr.Actuate(RoomTemp) == nil {
		}
		hotSum += float64(sh.FailedAt())
		roomSum += float64(sr.FailedAt())
	}
	if hotSum >= roomSum {
		t.Errorf("500°C should shorten lifetimes: hot mean %g vs room mean %g", hotSum/n, roomSum/n)
	}
	// The key security property: no environment extends lifetime.
	if hotSum/n > roomSum/n {
		t.Error("environment extended device lifetime — security violation")
	}
}

func TestFreezingDoesNotExtendLifetime(t *testing.T) {
	d := weibull.MustNew(50, 8)
	r1, r2 := rng.New(9), rng.New(9)
	frozen := Environment{TempCelsius: -80}
	var frozenSum, roomSum float64
	const n = 1000
	for i := 0; i < n; i++ {
		sf := Fabricate(d, r1)
		sr := Fabricate(d, r2)
		for sf.Actuate(frozen) == nil {
		}
		for sr.Actuate(RoomTemp) == nil {
		}
		frozenSum += float64(sf.FailedAt())
		roomSum += float64(sr.FailedAt())
	}
	if frozenSum > roomSum {
		t.Error("freezing extended lifetime — paper says fracture prevents this")
	}
}

func TestEnvironmentAccelerationFactors(t *testing.T) {
	cases := []struct {
		temp float64
		want float64
	}{
		{25, 1}, {100, 1}, {200, 2}, {500, 10}, {-80, 2}, {0, 1},
	}
	for _, c := range cases {
		if got := (Environment{TempCelsius: c.temp}).Acceleration(); got != c.want {
			t.Errorf("acceleration at %g°C = %g, want %g", c.temp, got, c.want)
		}
	}
}

// TestFabricateIntoMatchesFabricate pins the slab fabricator to the
// per-switch one: equal RNG states give identical lifetimes, draw for
// draw, so a structure can move between the two without a single switch
// changing. The slab fill itself must not allocate, and a Switch stays a
// 32-byte value so a copy's slab is one pointer-free allocation.
func TestFabricateIntoMatchesFabricate(t *testing.T) {
	d := weibull.MustNew(14, 8)
	r := rng.New(5)
	want := make([]Switch, 141)
	for i := range want {
		want[i] = *Fabricate(d, r)
	}
	got := make([]Switch, len(want))
	FabricateInto(got, d, rng.New(5))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("switch %d differs: FabricateInto %+v, Fabricate %+v", i, got[i], want[i])
		}
	}
	r = rng.New(6)
	if a := testing.AllocsPerRun(100, func() { FabricateInto(got, d, r) }); a != 0 {
		t.Fatalf("FabricateInto allocates %.1f times per call, want 0", a)
	}
	if size := unsafe.Sizeof(Switch{}); size != 24 {
		t.Fatalf("Switch is %d bytes, want 24", size)
	}
}

func TestMeasureLifetimesAndRefit(t *testing.T) {
	// End-to-end characterization: fabricate, cycle to failure, refit the
	// Weibull parameters — they must come back near nominal.
	nominal := weibull.MustNew(15, 6)
	p := NewPopulation(nominal, 0, 0, rng.New(21))
	obs := p.MeasureLifetimes(5000, 1000)
	fit, err := weibull.Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	// SampleCycles ceils the continuous draw and failure is recorded on the
	// first actuation *past* the lifetime, so the refit alpha sits ~1.5
	// cycles above nominal.
	if fit.Alpha < nominal.Alpha || fit.Alpha > nominal.Alpha+2.5 {
		t.Errorf("refit alpha %g, want within [%g, %g]", fit.Alpha, nominal.Alpha, nominal.Alpha+2.5)
	}
	// Discretization to whole cycles blurs beta somewhat.
	if fit.Beta < 4.5 || fit.Beta > 8.5 {
		t.Errorf("refit beta %g, want ~6", fit.Beta)
	}
}

func TestMeasureLifetimesCensoring(t *testing.T) {
	p := NewPopulation(weibull.MustNew(100, 4), 0, 0, rng.New(2))
	obs := p.MeasureLifetimes(200, 50) // cutoff well below mean
	censored := 0
	for _, o := range obs {
		if o.Censored {
			censored++
			if o.Time != 50 {
				t.Error("censored observation should carry the cutoff time")
			}
		}
	}
	if censored == 0 {
		t.Error("expected some censored observations with cutoff << mean")
	}
}

func TestProcessVariationWidensSpread(t *testing.T) {
	d := weibull.MustNew(50, 12)
	rTight, rWide := rng.New(31), rng.New(31)
	tight := NewPopulation(d, 0, 0, rTight)
	wide := NewPopulation(d, 0.4, 0.3, rWide)
	variance := func(p *Population) float64 {
		const n = 4000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			s := p.Fabricate()
			for s.Actuate(RoomTemp) == nil {
			}
			v := float64(s.FailedAt())
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return sumSq/n - m*m
	}
	vt, vw := variance(tight), variance(wide)
	if vw <= vt {
		t.Errorf("process variation should widen lifetime spread: tight %g, wide %g", vt, vw)
	}
}

func TestStringDoesNotLeakLifetime(t *testing.T) {
	s := FabricateDeterministic(12345)
	if str := s.String(); str == "" {
		t.Error("empty String")
	}
	// the hidden lifetime must not be printed
	if containsDigits := func(str, sub string) bool {
		for i := 0; i+len(sub) <= len(str); i++ {
			if str[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	}; containsDigits(s.String(), "12345") {
		t.Error("String() leaks the hidden lifetime")
	}
}
