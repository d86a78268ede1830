// Package analysis is jengalint: a suite of static analyzers that
// machine-enforce the determinism, confinement, and hot-path contracts
// the golden tests and the sim anchor rest on. The API deliberately
// mirrors golang.org/x/tools/go/analysis (Analyzer / Pass / Diagnostic)
// but is built on the standard library only — go/ast, go/types and
// export data from `go list -export` — so the suite compiles from the
// module itself and runs fully offline, unlike the network-fetched
// staticcheck pin.
//
// Analyzers:
//
//	maporder   — no `range` over a map in golden-affecting packages
//	             unless the loop body is provably order-insensitive or
//	             the site carries //jenga:order-ok <why>.
//	detsource  — no wall-clock reads (time.Now/Since/Until), global
//	             math/rand, or environment reads in sim packages.
//	confine    — no go statements, sync primitives, or channel ops in
//	             goroutine-confined packages outside files that carry
//	             the //jenga:concurrent <why> pragma.
//	hotpath    — functions annotated //jenga:hotpath may not call fmt,
//	             allocate maps or closures, grow a nil local slice, or
//	             box a concrete value into an interface.
//	capability — type assertions to a capability interface must use the
//	             comma-ok form so a missing capability degrades instead
//	             of panicking.
//	deadexport — no exported identifier under internal/ without a
//	             non-test reference in the module, unless it carries
//	             //jenga:api <why>.
//
// The pragma grammar is documented in DESIGN.md ("Determinism
// contract") and implemented in pragma.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// shape so the checks port unchanged if the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// RunModule, set instead of Run, sees every loaded package at once
	// (one Pass each) for a check that needs the whole module's uses.
	RunModule func([]*Pass) error
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Path is the package path analyzers gate on. For packages under
	// an analysistest-style testdata/src tree it is the virtual path
	// relative to testdata/src, so package-gated analyzers fire on
	// fixtures the same way they fire on the real tree.
	Path string

	report  func(Diagnostic)
	pragmas map[*ast.File]*FilePragmas
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether f is a _test.go file. detsource, maporder
// and confine exempt test files (the goldens themselves range over
// result maps freely); capability checks them too, because a
// single-result capability assertion panics the same way in a test.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// FilePragmas returns the parsed //jenga: pragmas of f.
func (p *Pass) FilePragmas(f *ast.File) *FilePragmas {
	if fp, ok := p.pragmas[f]; ok {
		return fp
	}
	fp := scanPragmas(p.Fset, f)
	p.pragmas[f] = fp
	return fp
}

// suppressed reports whether a finding at pos inside f is suppressed by
// a line pragma of the given kind (same line or the line above). A bare
// pragma with no justification does not suppress — it is itself
// reported, so every suppression in the tree explains why it is safe.
func (p *Pass) suppressed(f *ast.File, kind string, pos token.Pos) bool {
	pr := p.FilePragmas(f).linePragma(kind, p.Fset.Position(pos).Line)
	if pr == nil {
		return false
	}
	if pr.Arg == "" {
		p.Reportf(pr.Pos, "//jenga:%s needs a justification (\"//jenga:%s <why>\")", kind, kind)
		return false
	}
	return true
}

// pathIn reports whether path is pkg or a package under pkg/.
func pathIn(path, pkg string) bool {
	return path == pkg || strings.HasPrefix(path, pkg+"/")
}

// goldenPkgs are the packages whose outputs are pinned by golden tests
// and the sim anchor: one unordered map iteration on a result path
// breaks bit-identity. maporder guards them.
var goldenPkgs = []string{
	"jenga/internal/core",
	"jenga/internal/baseline",
	"jenga/internal/engine",
	"jenga/internal/sched",
	"jenga/internal/cluster",
	"jenga/internal/fleet",
	"jenga/internal/chaos",
	"jenga/internal/workload",
}

func isGoldenPkg(path string) bool {
	for _, g := range goldenPkgs {
		if pathIn(path, g) {
			return true
		}
	}
	return false
}

// confinedPkgs run goroutine-confined by contract: the engine and
// everything under it is single-goroutine, and the concurrent wrappers
// (serve's pump, cluster's shard loops, the fleet directory lock) are
// confined to files that carry the //jenga:concurrent pragma.
var confinedPkgs = []string{
	"jenga/internal/core",
	"jenga/internal/engine",
	"jenga/internal/sched",
	"jenga/internal/serve",
	"jenga/internal/cluster",
	"jenga/internal/fleet",
}

func isConfinedPkg(path string) bool {
	for _, c := range confinedPkgs {
		if pathIn(path, c) {
			return true
		}
	}
	return false
}

// isSimPkg reports whether path is part of the simulation whose results
// must be a pure function of (workload, config, seed). Everything in
// the module is, except the entry points (cmd, examples), the wall-
// clock benchmark harness (internal/bench measures real time by
// design), and this linter.
func isSimPkg(path string) bool {
	if path != "jenga" && !strings.HasPrefix(path, "jenga/") {
		return false
	}
	for _, ex := range []string{
		"jenga/cmd",
		"jenga/examples",
		"jenga/internal/bench",
		"jenga/internal/analysis",
	} {
		if pathIn(path, ex) {
			return false
		}
	}
	return true
}

// All enumerates the suite in report order.
func All() []*Analyzer {
	return []*Analyzer{Maporder, Detsource, Confine, Hotpath, Capability, Deadexport}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var as []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		as = append(as, a)
	}
	return as, nil
}

// RunAnalyzers applies each analyzer to each package (a module
// analyzer to all of them at once) and returns all diagnostics sorted
// by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	var diags []Diagnostic
	pragmas := map[*ast.File]*FilePragmas{}
	newPass := func(a *Analyzer, pkg *Package) *Pass {
		return &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			pragmas:  pragmas,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			passes := make([]*Pass, len(pkgs))
			for i, pkg := range pkgs {
				passes[i] = newPass(a, pkg)
			}
			if err := a.RunModule(passes); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range pkgs {
			if err := a.Run(newPass(a, pkg)); err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if len(pkgs) == 0 {
		return diags, nil, nil
	}
	fset := pkgs[0].Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, fset, nil
}
