package kokkos_test

import (
	"fmt"

	"repro/internal/kokkos"
)

// Views are labeled, shaped arrays; Ref creates a second header over the
// same allocation, which is how Kokkos Resilience detects duplicate
// captures.
func Example() {
	x := kokkos.NewF64("positions", 4, 3)
	x.Set2(2, 1, 7.5)

	captured := x.Ref("positions@force") // shares storage
	fmt.Println(captured.At2(2, 1))
	fmt.Println(kokkos.SameAllocation(x, captured))

	other := kokkos.NewF64("velocities", 4, 3)
	fmt.Println(kokkos.SameAllocation(x, other))
	// Output:
	// 7.5
	// true
	// false
}

// Serialization round-trips view contents exactly.
func ExampleF64View_Serialize() {
	v := kokkos.NewF64("state", 3)
	v.Set(0, 1.5)
	v.Set(2, -2.25)

	w := kokkos.NewF64("state", 3)
	if err := w.Deserialize(v.Serialize()); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(w.At(0), w.At(1), w.At(2))
	// Output:
	// 1.5 0 -2.25
}
