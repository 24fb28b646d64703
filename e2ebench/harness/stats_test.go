package harness

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		percentile float64
		beyond     int
	}{
		{1000, 99, 10},    // p99.9 would leave 1 beyond
		{999, 95, 49},     // p99 would leave 9 beyond
		{10000, 99.9, 10}, // p99.99 would leave 1 beyond
		{100000, 99.99, 10},
		{21, 50, 10},
	}
	for _, c := range cases {
		got, ok := TailPercentile(seq(c.n))
		if !ok || got.Percentile != c.percentile || got.Beyond != c.beyond {
			t.Errorf("n=%d: got %+v ok=%v, want p%g with %d beyond", c.n, got, ok, c.percentile, c.beyond)
		}
		if want := seq(c.n)[c.n-1-c.beyond]; got.Value != want {
			t.Errorf("n=%d: value %g, want %g", c.n, got.Value, want)
		}
	}
	if _, ok := TailPercentile(seq(19)); ok {
		t.Error("19 samples leave 9 beyond the median; no percentile qualifies")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// One fsync serves three appends that overlap it and each other: the
	// covered time is the union [20, 70), counted once.
	parent := Interval{0, 100}
	children := []Interval{{20, 50}, {30, 60}, {40, 70}, {55, 65}}
	if got := SelfTime(parent, children); got != 50 {
		t.Errorf("self time %d, want 50", got)
	}
	// Children reaching outside the parent are clipped to it.
	if got := SelfTime(Interval{10, 20}, []Interval{{0, 15}, {18, 40}}); got != 3 {
		t.Errorf("clipped self time %d, want 3", got)
	}
	// Disjoint children add up.
	if got := SelfTime(parent, []Interval{{0, 10}, {90, 100}}); got != 80 {
		t.Errorf("disjoint self time %d, want 80", got)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Errorf("childless self time %d, want 100", got)
	}
}
