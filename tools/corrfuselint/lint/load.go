package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, typechecked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	// TestFiles are the package's _test.go files, in-package and external,
	// parsed without comments and never typechecked (target packages only).
	TestFiles []*ast.File
	Types     *types.Package
	// Info is populated for target (pattern-matched) packages only;
	// dependency packages are typechecked API-only.
	Info   *types.Info
	Target bool
}

// Program is a loaded set of packages: the targets the patterns matched
// plus every dependency, all typechecked against one FileSet.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package
	// marked holds the objects whose declaration doc carries a
	// //corrfuse:<marker> directive, keyed by marker name.
	marked map[string]map[types.Object]bool
	// memo holds program-wide facts analyzers build once (see Memo).
	memo map[string]any
}

// Targets returns the pattern-matched packages in load order.
func (prog *Program) Targets() []*Package {
	var out []*Package
	for _, p := range prog.Packages {
		if p.Target {
			out = append(out, p)
		}
	}
	return out
}

// Marked reports whether obj's declaration carries //corrfuse:<marker>.
func (prog *Program) Marked(obj types.Object, marker string) bool {
	return obj != nil && prog.marked[marker][obj]
}

// Memo returns the value stored under key, calling build to make it on the
// first request. An analyzer whose facts span packages builds them once per
// program instead of once per pass.
func (prog *Program) Memo(key string, build func() any) any {
	v, ok := prog.memo[key]
	if !ok {
		v = build()
		prog.memo[key] = v
	}
	return v
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	ImportMap    map[string]string
	Standard     bool
	DepOnly      bool
	Incomplete   bool
	Error        *struct{ Err string }
}

// Load lists patterns in dir (module-aware, workspace off, cgo off so
// every dependency resolves to pure-Go files the typechecker can read),
// parses every package, and typechecks the whole graph in the
// dependency order `go list -deps` guarantees. Dependencies are checked
// API-only (IgnoreFuncBodies); targets get full bodies and types.Info.
//
// GOWORK and CGO_ENABLED are forced in the process environment, not just
// the subprocess: go/build shells back out to the go command on module
// import paths and must see the same view.
func Load(dir string, patterns []string) (*Program, error) {
	os.Setenv("GOWORK", "off")
	os.Setenv("CGO_ENABLED", "0")
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,XTestGoFiles,Imports,ImportMap,Standard,DepOnly,Incomplete,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var listed []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := &listPkg{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		listed = append(listed, lp)
	}

	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package, len(listed)),
		marked: make(map[string]map[types.Object]bool),
		memo:   make(map[string]any),
	}
	imp := &progImporter{prog: prog}
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			prog.byPath["unsafe"] = &Package{Path: "unsafe", Types: types.Unsafe}
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Target: !lp.DepOnly}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", filepath.Join(lp.Dir, name), err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Target {
			for _, name := range append(lp.TestGoFiles, lp.XTestGoFiles...) {
				f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, fmt.Errorf("parsing %s: %v", filepath.Join(lp.Dir, name), err)
				}
				pkg.TestFiles = append(pkg.TestFiles, f)
			}
			pkg.Info = &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
			}
		}
		imp.current = lp
		var tcErrs []error
		conf := types.Config{
			Importer:         imp,
			IgnoreFuncBodies: !pkg.Target,
			Error:            func(err error) { tcErrs = append(tcErrs, err) },
		}
		tpkg, err := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, pkg.Info)
		if len(tcErrs) > 0 {
			return nil, fmt.Errorf("typechecking %s: %v", lp.ImportPath, tcErrs[0])
		}
		if err != nil {
			return nil, fmt.Errorf("typechecking %s: %v", lp.ImportPath, err)
		}
		pkg.Types = tpkg
		prog.byPath[lp.ImportPath] = pkg
		prog.Packages = append(prog.Packages, pkg)
	}
	prog.scanMarkers()
	return prog, nil
}

// progImporter resolves imports against the already-typechecked graph,
// honoring the importing package's vendor ImportMap (stdlib packages
// import vendored golang.org/x paths under remapped names).
type progImporter struct {
	prog    *Program
	current *listPkg
}

func (imp *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := imp.current.ImportMap[path]; ok {
		path = mapped
	}
	p, ok := imp.prog.byPath[path]
	if !ok || p.Types == nil {
		return nil, fmt.Errorf("import %q not in dependency graph (importing %s)", path, imp.current.ImportPath)
	}
	return p.Types, nil
}

// scanMarkers indexes //corrfuse:<marker> doc directives on function
// declarations of target packages, so analyzers can look annotations up
// by types.Object across package boundaries.
func (prog *Program) scanMarkers() {
	for _, pkg := range prog.Targets() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Doc != nil {
					obj := pkg.Info.Defs[fd.Name]
					if obj == nil {
						continue
					}
					for _, c := range fd.Doc.List {
						rest, ok := strings.CutPrefix(c.Text, "//corrfuse:")
						if !ok {
							continue
						}
						marker, _, _ := strings.Cut(rest, " ")
						marker = strings.TrimSpace(marker)
						if marker == "" {
							continue
						}
						if prog.marked[marker] == nil {
							prog.marked[marker] = make(map[types.Object]bool)
						}
						prog.marked[marker][obj] = true
					}
				}
			}
		}
	}
}
