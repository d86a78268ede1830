// Command jengalint is the repo's offline multichecker: it runs the
// internal/analysis suite (maporder, detsource, confine, hotpath,
// capability, deadexport — the machine-enforced determinism,
// confinement, hot-path and dead-export contracts; see DESIGN.md
// "Determinism contract") over the given package patterns. deadexport
// judges references across the packages loaded, so it is exact only
// over the whole module (./...).
//
//	jengalint ./...                  # the whole module (make lint)
//	jengalint -analyzers maporder ./internal/core
//	jengalint -tests=false ./...     # skip _test.go files entirely
//
// Unlike the staticcheck pin, jengalint builds from the module itself
// with no dependencies beyond the standard library, so it runs in
// offline CI: type information comes from `go list -export` export
// data, not the network. Exit status: 0 clean, 1 findings, 2 usage or
// load error.
package main

import (
	"flag"
	"fmt"
	"os"

	"jenga/internal/analysis"
)

func main() {
	analyzers := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	tests := flag.Bool("tests", true, "include _test.go files (only capability reports in them)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	as, err := analysis.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jengalint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jengalint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(dir, *tests, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jengalint:", err)
		os.Exit(2)
	}
	diags, fset, err := analysis.RunAnalyzers(pkgs, as)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jengalint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "jengalint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
