package dse_test

import (
	"fmt"

	"lemonade/internal/dse"
	"lemonade/internal/reliability"
	"lemonade/internal/weibull"
)

// ExampleExplore sizes the paper's running design point: the α=14, β=8
// limited-use connection with 10% redundant encoding.
func ExampleExplore() {
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         91_250,
		KFrac:       0.10,
		ContinuousT: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("structure: %d devices, k=%d\n", design.N, design.K)
	fmt.Printf("copies: %d\n", design.Copies)
	fmt.Printf("total devices: %d\n", design.TotalDevices)
	// Output:
	// structure: 140 devices, k=14
	// copies: 6057
	// total devices: 847980
}
