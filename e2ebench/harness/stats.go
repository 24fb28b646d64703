package harness

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over fewer than 1000 samples is one outlier's value.
const minBeyond = 10

// tailCandidates are the percentiles TailPercentile considers, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted
// samples, or 0 for an empty set.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n
// samples: ceil(q·n) − 1, clamped to the sample range. The product is
// nudged down so a q that is not exact in binary (0.999) cannot round
// an exact rank up by one.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Tail is a reported tail percentile: its value, which percentile it is,
// and how many samples lie beyond it.
type Tail struct {
	Percentile float64
	Value      float64
	Beyond     int
}

// TailPercentile returns the highest candidate percentile of sorted that
// has at least minBeyond samples beyond it, with the count. ok is false
// when even the median has too few samples beyond it.
func TailPercentile(sorted []float64) (t Tail, ok bool) {
	n := len(sorted)
	for _, p := range tailCandidates {
		i := rankIndex(n, p/100)
		if beyond := n - 1 - i; n > 0 && beyond >= minBeyond {
			return Tail{Percentile: p, Value: sorted[i], Beyond: beyond}, true
		}
	}
	return Tail{}, false
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (nearest rank), or 0 when empty.
func median(xs []float64) float64 { return Quantile(sortedCopy(xs), 0.5) }

// Interval is a closed-open span of the injected clock, in nanoseconds.
type Interval struct{ Start, End int64 }

// SelfTime returns how much of parent no child covers: the parent's
// length minus the length of the union of the children clipped to it.
// Children may overlap each other — one fsync serves many appends — and
// the overlap is counted once.
func SelfTime(parent Interval, children []Interval) int64 {
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered := int64(0)
	var cur Interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}
