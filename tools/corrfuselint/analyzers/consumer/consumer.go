// Package consumer extends the consumer rule from packages to functions:
// an exported function or method declared in a non-test file of a package
// under internal/ must have a consumer. Internal packages are not an API,
// so an export nothing uses is dead weight that every refactor still has
// to carry (store.(*Store).Capture kept its tests green for a release
// after its last caller left). A consumer is any of:
//
//   - (a) a reference from a non-test file anywhere in the module, the
//     declaration's own body excepted;
//   - (b) a reference from a _test.go file of another package: a
//     cross-package test helper has no other home. Test files are parsed,
//     not typechecked, so a function counts when a pkg.Name selector
//     resolves through the file's imports to it, and a method counts when
//     any other selector names it (matching by name errs toward
//     "consumed");
//   - (c) for a method, a named interface in the loaded graph that its type
//     satisfies and that declares it, or the by-name conventions Error,
//     String and Unwrap (http.ResponseController finds Unwrap by
//     assertion, not through a declared interface);
//   - (d) a //corrfuse:api doc directive followed by a one-line reason.
//
// A finding is fixed by deleting the function or, when only its own
// package's tests use it, by moving it into that package's _test.go files.
//
// References are read from the loaded targets only, so the rule holds over
// the whole module (./...); over a subset of it, a function whose consumers
// lie outside the subset is reported.
package consumer

import (
	"go/ast"
	"go/types"
	"path"
	"strconv"
	"strings"

	"corrfuselint/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "consumer",
	Doc:  "exported functions and methods under internal/ need a consumer: a non-test reference, another package's test, an interface, or //corrfuse:api",
	Run:  run,
}

// conventions are method names reached by name, not through an interface
// the loaded graph declares.
var conventions = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// facts are the program-wide references every package's pass reads.
type facts struct {
	// used holds the origin of every function and method a non-test file
	// references outside that function's own declaration.
	used map[types.Object]bool
	// testFuncs maps a package path and function name to the paths of the
	// packages whose test files reference it.
	testFuncs map[string]map[string]map[string]bool
	// testMethods maps a method name to the paths of the packages whose
	// test files select a member of that name.
	testMethods map[string]map[string]bool
	// ifaces indexes the loaded graph's named interfaces by method name.
	ifaces map[string][]*types.Interface
}

func run(pass *lint.Pass) error {
	if !underInternal(pass.PkgPath) {
		return nil
	}
	fx := pass.Program.Memo("consumer", func() any { return collect(pass.Program) }).(*facts)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if marked, reason := apiMarker(fd.Doc); marked {
				if reason == "" {
					pass.Reportf(fd.Name.Pos(), "//corrfuse:api on %s needs a one-line reason", describe(fn))
				}
				continue
			}
			if fx.used[fn] {
				continue
			}
			sig := fn.Type().(*types.Signature)
			var testers map[string]bool
			if sig.Recv() == nil {
				testers = fx.testFuncs[pass.PkgPath][fn.Name()]
			} else {
				if conventions[fn.Name()] || fx.satisfies(sig.Recv().Type(), fn.Name()) {
					continue
				}
				testers = fx.testMethods[fn.Name()]
			}
			if otherThan(testers, pass.PkgPath) {
				continue
			}
			if testers[pass.PkgPath] {
				pass.Reportf(fd.Name.Pos(), "%s has no consumer outside its own package's tests: move it into a _test.go file (export_test.go if an external test needs it)", describe(fn))
			} else {
				pass.Reportf(fd.Name.Pos(), "%s has no consumer: nothing references it; delete it, or mark it //corrfuse:api with a reason", describe(fn))
			}
		}
	}
	return nil
}

// underInternal reports whether an import path has an internal element.
func underInternal(pkgPath string) bool {
	return strings.Contains("/"+pkgPath+"/", "/internal/")
}

// otherThan reports whether set holds a path other than own.
func otherThan(set map[string]bool, own string) bool {
	for p := range set {
		if p != own {
			return true
		}
	}
	return false
}

// apiMarker finds a //corrfuse:api directive in a doc comment and returns
// the reason written after it.
func apiMarker(doc *ast.CommentGroup) (bool, string) {
	if doc == nil {
		return false, ""
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//corrfuse:api")
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

// describe names a function the way a reader looks it up: F, T.M or (*T).M.
func describe(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		if n := lint.NamedType(p.Elem()); n != nil {
			return "(*" + n.Obj().Name() + ")." + fn.Name()
		}
	}
	if n := lint.NamedType(t); n != nil {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// satisfies reports whether recv's type, or a pointer to it, implements a
// named interface that declares method.
func (fx *facts) satisfies(recv types.Type, method string) bool {
	named := lint.NamedType(recv)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range fx.ifaces[method] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

func collect(prog *lint.Program) *facts {
	fx := &facts{
		used:        map[types.Object]bool{},
		testFuncs:   map[string]map[string]map[string]bool{},
		testMethods: map[string]map[string]bool{},
		ifaces:      map[string][]*types.Interface{},
	}
	names := map[string]string{} // import path -> package name
	for _, pkg := range prog.Packages {
		if pkg.Types == nil {
			continue
		}
		names[pkg.Path] = pkg.Types.Name()
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			iface, ok := named.Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				fx.ifaces[m] = append(fx.ifaces[m], iface)
			}
		}
	}
	for _, pkg := range prog.Targets() {
		for _, f := range pkg.Files {
			fx.collectUses(pkg.Info, f)
		}
		for _, f := range pkg.TestFiles {
			fx.collectTestRefs(pkg.Path, names, f)
		}
	}
	return fx
}

// collectUses records every function a non-test file references, except a
// function's references to itself.
func (fx *facts) collectUses(info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		var self types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
				fx.used[fn.Origin()] = true
			}
			return true
		})
	}
}

// collectTestRefs records the functions and method names a test file of
// package owner references. In-package test files (package name without
// _test) reach their own functions by bare name.
func (fx *facts) collectTestRefs(owner string, names map[string]string, f *ast.File) {
	imports := map[string]string{} // local name -> import path
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		local, ok := names[p]
		if !ok {
			local = path.Base(p)
		}
		if spec.Name != nil {
			local = spec.Name.Name
		}
		imports[local] = p
	}
	addFunc := func(pkgPath, name string) {
		if fx.testFuncs[pkgPath] == nil {
			fx.testFuncs[pkgPath] = map[string]map[string]bool{}
		}
		if fx.testFuncs[pkgPath][name] == nil {
			fx.testFuncs[pkgPath][name] = map[string]bool{}
		}
		fx.testFuncs[pkgPath][name][owner] = true
	}
	inPackage := !strings.HasSuffix(f.Name.Name, "_test")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					addFunc(p, n.Sel.Name)
					return true
				}
			}
			if fx.testMethods[n.Sel.Name] == nil {
				fx.testMethods[n.Sel.Name] = map[string]bool{}
			}
			fx.testMethods[n.Sel.Name][owner] = true
		case *ast.Ident:
			if inPackage {
				addFunc(owner, n.Name)
			}
		}
		return true
	})
}
