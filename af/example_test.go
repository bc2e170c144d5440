package af_test

import (
	"fmt"

	"audiofile/af"
)

// Device time is a 32-bit counter that wraps, so order and distance are
// taken on the wrapped difference: a time just past the wrap is after one
// just before it, though it is the smaller number.
func ExampleTimeBefore() {
	before, after := af.ATime(1<<32-100), af.ATime(100)
	fmt.Println(af.TimeBefore(before, after), before < after)
	fmt.Println(af.TimeSub(after, before))
	// Output:
	// true false
	// 200
}
