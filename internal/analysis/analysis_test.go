package analysis_test

import (
	"testing"

	"jenga/internal/analysis"
	"jenga/internal/analysis/analysistest"
)

// Each analyzer runs over its fixture package under testdata/src; the
// fixture paths under the virtual jenga/ tree double as tests of the
// package gates (golden-affecting, confined, sim).

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Maporder, "jenga/internal/core/mapordertest")
}

func TestDetsource(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Detsource, "jenga/internal/engine/detsourcetest")
}

func TestConfine(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Confine, "jenga/internal/sched/confinetest")
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Hotpath, "hotpathtest")
}

// TestHotpathRejectsBoxedHeaps is the regression the boxing rule was
// added for: the pre-evictQueue release path, annotated hot, fails.
func TestHotpathRejectsBoxedHeaps(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Hotpath, "oldrelease")
}

func TestCapability(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Capability, "captest")
}

// TestDeadexport runs over a fixture module slice: an internal/ package
// whose exports are kept by a caller outside internal/, by interfaces
// (named, anonymous in a type assertion, standard), by //jenga:api — or
// by nothing, a test file's reference included.
func TestDeadexport(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Deadexport, "deadexport")
}

// TestGatesSkipOutsidePackages pins the negative side of the package
// gates: the same constructs the fixtures flag are legal in a package
// outside the golden/confined/sim sets.
func TestGatesSkipOutsidePackages(t *testing.T) {
	for _, a := range []*analysis.Analyzer{analysis.Maporder, analysis.Detsource, analysis.Confine} {
		analysistest.Run(t, "testdata", a, "ungated")
	}
}
