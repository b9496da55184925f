package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// modulePath is the import-path prefix the custom importer resolves to
// repository directories. Matches the go.mod module line.
const modulePath = "mcost"

// Finding is one discarded error, formatted file:line: message.
type Finding struct {
	Pos     token.Position
	Call    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: unchecked error from %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Call)
}

// LintModule type-checks every non-test package under root and returns
// findings sorted by position.
func LintModule(root string) ([]Finding, error) {
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	im := &repoImporter{
		fset: fset,
		root: root,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
	}
	var findings []Finding
	for _, dir := range dirs {
		fs, err := lintDir(fset, im, root, dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

// packageDirs lists every directory under root holding non-test Go
// files, skipping hidden directories and testdata.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// lintDir type-checks one package directory and reports its discarded
// errors.
func lintDir(fset *token.FileSet, im *repoImporter, root, dir string) ([]Finding, error) {
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: im}
	if _, err := conf.Check(importPathFor(root, dir), fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", dir, err)
	}
	var findings []Finding
	for _, file := range files {
		skip := nolintLines(fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := info.Types[call]
			if !ok || !returnsError(tv.Type) {
				return true
			}
			if exempt(info, call) {
				return true
			}
			pos := fset.Position(call.Pos())
			if skip[pos.Line] {
				return true
			}
			findings = append(findings, Finding{Pos: pos, Call: callName(call)})
			return true
		})
	}
	return findings, nil
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor build constraints: per-platform variants of the same
		// declaration must not be type-checked together.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// nolintLines collects the lines carrying a //nolint:errcheck comment.
func nolintLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "nolint:errcheck") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// exempt mirrors errcheck's default excludes: terminal printing (fmt
// Print* / Fprint* to os.Stdout/os.Stderr, which cannot usefully handle
// a write error) and writes to sticky-error writers (strings.Builder
// never fails; bufio.Writer surfaces its error at the checked Flush).
func exempt(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if tv, ok := info.Types[sel.X]; ok && stickyWriter(tv.Type) {
		return true
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		if tv, ok := info.Types[call.Args[0]]; ok && stickyWriter(tv.Type) {
			return true
		}
		if w, ok := call.Args[0].(*ast.SelectorExpr); ok {
			if x, ok := w.X.(*ast.Ident); ok && x.Name == "os" &&
				(w.Sel.Name == "Stdout" || w.Sel.Name == "Stderr") {
				return true
			}
		}
	}
	return false
}

// stickyWriter reports whether t is strings.Builder or bufio.Writer
// (possibly behind a pointer).
func stickyWriter(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "strings.Builder", "bufio.Writer":
		return true
	}
	return false
}

var errType = types.Universe.Lookup("error").Type()

// returnsError reports whether a call result type includes an error.
func returnsError(t types.Type) bool {
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return t != nil && types.Identical(t, errType)
	}
}

func callName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	default:
		return "call"
	}
}

// importPathFor maps a repo directory to its module import path.
func importPathFor(root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(rel)
}

// repoImporter resolves module-internal import paths to repository
// directories (type-checking them on demand, with caching) and
// delegates everything else to the source-based standard importer.
type repoImporter struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im *repoImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.pkgs[path]; ok {
		return pkg, nil
	}
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		dir := filepath.Join(im.root, strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"))
		files, err := parseDir(im.fset, dir)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, files, nil)
		if err != nil {
			return nil, err
		}
		im.pkgs[path] = pkg
		return pkg, nil
	}
	pkg, err := im.std.Import(path)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}
