package shamir_test

import (
	"fmt"

	"lemonade/internal/rng"
	"lemonade/internal/shamir"
)

// ExampleSplit shows the (k, n) threshold sharing used by the encoded
// architectures: 3 of 5 shares reconstruct, 2 reveal nothing.
func ExampleSplit() {
	r := rng.New(42)
	shares, err := shamir.Split([]byte("storage key"), 3, 5, r)
	if err != nil {
		panic(err)
	}
	secret, err := shamir.Narrow.Combine(shares[1:4], 3) // any 3 of the 5
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", secret)

	_, err = shamir.Narrow.Combine(shares[:2], 3) // 2 are never enough
	fmt.Println(err != nil)
	// Output:
	// storage key
	// true
}
