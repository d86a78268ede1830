// Package analysistest runs one analyzer over a fixture package (and
// the packages below it) under testdata/src and checks its diagnostics against `// want "regexp"`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only. Fixture packages are loaded through the
// same `go list -export` loader jengalint uses, and their package path
// relative to testdata/src is the path analyzers gate on — so a
// fixture under testdata/src/jenga/internal/core/... exercises the
// golden-affecting and confined package gates exactly like the real
// tree.
//
// Want syntax: one or more quoted regexps after the word want, in a
// line or block comment on the line the diagnostic is reported at:
//
//	for k := range m { // want "range over map"
//	x /* want "a" "b" */
//
// Every diagnostic must match an unconsumed want on its line, and
// every want must be consumed.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"jenga/internal/analysis"
)

// Run loads testdata/src/<pkgpath> and every package below it, and
// checks a's diagnostics against the fixtures' want comments.
//
//jenga:api the analyzer test harness: its callers are the analyzers' tests
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkgpath)
	pkgs, err := analysis.Load(dir, true, "./...")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, fset, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	type wantKey struct {
		file string
		line int
	}
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := fset.Position(c.Pos())
					for _, re := range parseWants(t, pos, c) {
						k := wantKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := wantKey{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		wants[k][matched] = nil // consumed
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// parseWants extracts the quoted regexps of a want comment.
func parseWants(t *testing.T, pos token.Position, c *ast.Comment) []*regexp.Regexp {
	text := strings.TrimSuffix(strings.TrimPrefix(c.Text, "/*"), "*/")
	text = strings.TrimPrefix(text, "//")
	i := strings.Index(text, "want ")
	if i < 0 {
		return nil
	}
	rest := strings.TrimSpace(text[i+len("want "):])
	var res []*regexp.Regexp
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("%s: malformed want comment %q: %v", pos, c.Text, err)
		}
		lit, err := strconv.Unquote(q)
		if err != nil {
			t.Fatalf("%s: malformed want pattern %q: %v", pos, q, err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
		}
		res = append(res, re)
		rest = strings.TrimSpace(rest[len(q):])
	}
	if len(res) == 0 {
		t.Fatalf("%s: want comment with no patterns: %q", pos, c.Text)
	}
	return res
}
