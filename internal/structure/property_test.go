package structure

import (
	"math"
	"testing"
	"testing/quick"

	"lemonade/internal/weibull"
)

// clampParams turns arbitrary fuzz inputs into a valid parameter point.
func clampParams(a, b float64, n, k uint8) (weibull.Dist, int, int) {
	alpha := 1 + math.Abs(math.Mod(a, 50))
	beta := 0.5 + math.Abs(math.Mod(b, 15))
	nn := int(n%200) + 1
	kk := int(k)%nn + 1
	return weibull.MustNew(alpha, beta), nn, kk
}

func TestParallelReliabilityBounds(t *testing.T) {
	f := func(a, b, x float64, n, k uint8) bool {
		d, nn, kk := clampParams(a, b, n, k)
		xx := math.Abs(math.Mod(x, 100))
		v := ParallelReliability(d, nn, kk, xx)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParallelReliabilityMonotoneInN(t *testing.T) {
	f := func(a, b, x float64, n, k uint8) bool {
		d, nn, kk := clampParams(a, b, n, k)
		xx := math.Abs(math.Mod(x, 60))
		lo := ParallelReliability(d, nn, kk, xx)
		hi := ParallelReliability(d, nn+8, kk, xx)
		return hi >= lo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParallelReliabilityAntiMonotoneInK(t *testing.T) {
	f := func(a, b, x float64, n, k uint8) bool {
		d, nn, kk := clampParams(a, b, n, k)
		if kk >= nn {
			return true
		}
		xx := math.Abs(math.Mod(x, 60))
		withK := ParallelReliability(d, nn, kk, xx)
		withK1 := ParallelReliability(d, nn, kk+1, xx)
		return withK1 <= withK+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParallelReliabilityAntiMonotoneInX(t *testing.T) {
	f := func(a, b, x float64, n, k uint8) bool {
		d, nn, kk := clampParams(a, b, n, k)
		xx := math.Abs(math.Mod(x, 60))
		now := ParallelReliability(d, nn, kk, xx)
		later := ParallelReliability(d, nn, kk, xx+1)
		return later <= now+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
