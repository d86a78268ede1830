package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	Dead()
}
