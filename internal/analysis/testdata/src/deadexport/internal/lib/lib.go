// Package lib exercises the deadexport analyzer: it sits under
// internal/, so its exported declarations need a non-test caller.
package lib

// Used is called from cmd/user.
func Used() int { return Limit }

// Limit is read by Used: a reference from the declaring package counts.
const Limit = 3

func Dead() {} // want "exported func Dead has no non-test reference"

// Recur calls only itself, which keeps nothing alive.
func Recur(n int) int { // want "exported func Recur has no non-test reference"
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// TestOnly is called from lib_test.go alone, which does not count.
func TestOnly() {} // want "exported func TestOnly has no non-test reference"

var Unread = 1 // want "exported var Unread has no non-test reference"

// T is the type cmd/user holds; its methods are kept or not one by one.
type T struct{}

// New is how cmd/user gets a T.
func New() T { return T{} }

func (T) DeadMethod() {} // want "exported method DeadMethod has no non-test reference"

// Speak is kept by the named interface Speaker, which cmd/user calls.
func (T) Speak() string { return "hi" }

// Stats is kept by the anonymous interface cmd/user asserts to.
func (T) Stats() int { return 1 }

// String is kept by fmt.Stringer, a well-known standard interface.
func (T) String() string { return "t" }

// Speaker is the named interface that keeps Speak.
type Speaker interface{ Speak() string }

// Orphan is named only by its own methods' receivers.
type Orphan struct{} // want "exported type Orphan has no non-test reference"

func (*Orphan) Hello() {} // want "exported method Hello has no non-test reference"

// Kept is API on purpose.
//
//jenga:api a justified entry point stays without a caller
func Kept() {}

func Bare() {} /* want "needs a justification" "exported func Bare has no non-test reference" */ //jenga:api
