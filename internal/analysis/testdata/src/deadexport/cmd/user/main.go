// Command user is the fixture's caller: outside internal/, so its own
// exports are never reported, and its references keep lib's alive.
package main

import (
	"fmt"

	"jenga/internal/analysis/testdata/src/deadexport/internal/lib"
)

// Unused is exported outside internal/: not reported.
func Unused() {}

func main() {
	t := lib.New()
	var s lib.Speaker = t
	fmt.Println(lib.Used(), s.Speak(), t)
	var v any = t
	if st, ok := v.(interface{ Stats() int }); ok {
		fmt.Println(st.Stats())
	}
}
