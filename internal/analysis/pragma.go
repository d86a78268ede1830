package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Pragma is one parsed //jenga:<kind> <arg> comment. The grammar is a
// single namespace:
//
//	//jenga:concurrent <why>   file pragma — the whole file is
//	                           allow-listed for goroutines, sync and
//	                           channels (confine).
//	//jenga:hotpath            function annotation — the function's body
//	                           is held to the zero-alloc contract
//	                           (hotpath). Must appear in the func's doc
//	                           comment.
//	//jenga:order-ok <why>     line suppression for maporder.
//	//jenga:det-ok <why>       line suppression for detsource.
//	//jenga:alloc-ok <why>     line suppression for hotpath.
//	//jenga:cap-ok <why>       line suppression for capability.
//	//jenga:api <why>          line suppression for deadexport: the
//	                           declaration is API on purpose.
//
// Line suppressions attach to the flagged line itself or the line
// directly above it, and every suppression must carry a non-empty
// justification — a bare pragma is reported instead of honored.
type Pragma struct {
	Kind string
	Arg  string
	Pos  token.Pos
}

// FilePragmas is every //jenga: pragma of one file, pre-indexed.
type FilePragmas struct {
	// Concurrent is the file-level //jenga:concurrent pragma, if any.
	Concurrent *Pragma
	// byLine holds line suppressions keyed by the line they sit on.
	byLine map[int][]*Pragma
	// hotpath holds the body-start offsets of functions annotated
	// //jenga:hotpath via their doc comment.
	hotpath map[*ast.FuncDecl]*Pragma
}

const pragmaPrefix = "//jenga:"

func parsePragma(c *ast.Comment) *Pragma {
	if !strings.HasPrefix(c.Text, pragmaPrefix) {
		return nil
	}
	rest := c.Text[len(pragmaPrefix):]
	kind, arg, _ := strings.Cut(rest, " ")
	kind = strings.TrimSpace(kind)
	if kind == "" {
		return nil
	}
	return &Pragma{Kind: kind, Arg: strings.TrimSpace(arg), Pos: c.Pos()}
}

// scanPragmas indexes every //jenga: pragma in f.
func scanPragmas(fset *token.FileSet, f *ast.File) *FilePragmas {
	fp := &FilePragmas{
		byLine:  map[int][]*Pragma{},
		hotpath: map[*ast.FuncDecl]*Pragma{},
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			p := parsePragma(c)
			if p == nil {
				continue
			}
			switch p.Kind {
			case "concurrent":
				if fp.Concurrent == nil {
					fp.Concurrent = p
				}
			case "hotpath":
				// Attached to a function below, via its doc comment.
			default:
				line := fset.Position(p.Pos).Line
				fp.byLine[line] = append(fp.byLine[line], p)
			}
		}
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			if p := parsePragma(c); p != nil && p.Kind == "hotpath" {
				fp.hotpath[fn] = p
				break
			}
		}
	}
	return fp
}

// linePragma returns a pragma of the given kind on line or line-1.
func (fp *FilePragmas) linePragma(kind string, line int) *Pragma {
	for _, l := range []int{line, line - 1} {
		for _, p := range fp.byLine[l] {
			if p.Kind == kind {
				return p
			}
		}
	}
	return nil
}

// HotpathPragma returns fn's //jenga:hotpath annotation, if any.
func (fp *FilePragmas) HotpathPragma(fn *ast.FuncDecl) *Pragma {
	return fp.hotpath[fn]
}
