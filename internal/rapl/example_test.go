package rapl_test

import (
	"fmt"

	"seesaw/internal/rapl"
)

// A cap write takes effect only after the actuation latency, and a
// sustained workload is then limited to the cap.
func ExampleDomain_SetLongCap() {
	d := rapl.MustNewDomain(rapl.Theta())
	d.SetLongCap(110)
	before, _ := d.Grant(180)
	fmt.Printf("before actuation: %v\n", before)
	d.Advance(0.02, 100) // 20 ms pass
	after, _ := d.Grant(180)
	fmt.Printf("after actuation: %v\n", after)
	// Output:
	// before actuation: 180.0 W
	// after actuation: 110.0 W
}
