package weibull_test

import (
	"fmt"

	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// ExampleDist_Reliability evaluates the paper's Eq 3 at the Fig 3a
// operating point: α=1.7, β=12 gives a sub-cycle degradation window.
func ExampleDist_Reliability() {
	d := weibull.MustNew(1.7, 12)
	fmt.Printf("R(1) = %.4f\n", d.Reliability(1))
	fmt.Printf("R(2) = %.6f\n", d.Reliability(2))
	// Output:
	// R(1) = 0.9983
	// R(2) = 0.000885
}

// ExampleFit recovers process parameters from destructive lifetime
// testing — the characterization step every deployment starts with.
func ExampleFit() {
	truth := weibull.MustNew(14, 8)
	r := rng.New(99)
	obs := make([]weibull.Obs, 20000)
	for i := range obs {
		obs[i] = weibull.Obs{Time: truth.Sample(r)}
	}
	fitted, err := weibull.Fit(obs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("alpha within 2%%: %v\n", fitted.Alpha > 13.7 && fitted.Alpha < 14.3)
	fmt.Printf("beta within 5%%: %v\n", fitted.Beta > 7.6 && fitted.Beta < 8.4)
	// Output:
	// alpha within 2%: true
	// beta within 5%: true
}
