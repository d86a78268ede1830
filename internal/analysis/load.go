package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked unit ready for analysis.
type Package struct {
	// Path is the gating path: the import path, with everything up to
	// and including an analysistest-style "testdata/src/" stripped so
	// fixture packages gate like the real tree.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath   string
	ForTest      string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load type-checks the packages matching patterns (relative to dir, the
// module root) without golang.org/x/tools and without the network: it
// asks `go list -export` to compile export data for every dependency
// into the build cache, parses the target sources, and type-checks them
// with the stdlib gc importer reading that export data. When
// includeTests is set, in-package _test.go files join their package's
// unit and external test packages are checked as their own unit.
func Load(dir string, includeTests bool, patterns ...string) ([]*Package, error) {
	targets, err := goList(dir, append([]string{
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles",
	}, patterns...))
	if err != nil {
		return nil, err
	}

	exportArgs := []string{"-export", "-deps"}
	if includeTests {
		exportArgs = append(exportArgs, "-test")
	}
	exportArgs = append(exportArgs, "-json=ImportPath,ForTest,Export")
	universe, err := goList(dir, append(exportArgs, patterns...))
	if err != nil {
		return nil, err
	}
	// The plain package's export data is the one every import resolves
	// against — except in an external test package, which sees its
	// package under test with the in-package test files (an
	// export_test.go) and every dependency of it recompiled against that
	// ("q [p.test]" in forTest[p]).
	exports := map[string]string{}
	forTest := map[string]map[string]string{}
	for _, p := range universe {
		switch {
		case strings.HasSuffix(p.ImportPath, ".test") || p.Export == "":
		case p.ForTest != "":
			if forTest[p.ForTest] == nil {
				forTest[p.ForTest] = map[string]string{}
			}
			forTest[p.ForTest][strings.Fields(p.ImportPath)[0]] = p.Export
		default:
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	importerFor := func(variants map[string]string) types.Importer {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			e, ok := variants[path]
			if !ok {
				e, ok = exports[path]
			}
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(e)
		})
	}
	imp := importerFor(nil)

	var pkgs []*Package
	for _, t := range targets {
		units := [][]string{t.GoFiles}
		paths := []string{t.ImportPath}
		if includeTests {
			units[0] = append(append([]string{}, t.GoFiles...), t.TestGoFiles...)
			if len(t.XTestGoFiles) > 0 {
				units = append(units, t.XTestGoFiles)
				paths = append(paths, t.ImportPath+"_test")
			}
		}
		for i, names := range units {
			if len(names) == 0 {
				continue
			}
			unitImp := imp
			if i > 0 && forTest[t.ImportPath] != nil {
				unitImp = importerFor(forTest[t.ImportPath])
			}
			pkg, err := check(fset, unitImp, paths[i], t.Dir, names)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func check(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var terrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(terrs...))
	}
	return &Package{
		Path:  virtualPath(path),
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// virtualPath strips an analysistest-style testdata/src/ prefix so
// fixture packages gate like real packages.
func virtualPath(path string) string {
	if i := strings.Index(path, "testdata/src/"); i >= 0 {
		return path[i+len("testdata/src/"):]
	}
	return path
}

func goList(dir string, args []string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var pkgs []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}
