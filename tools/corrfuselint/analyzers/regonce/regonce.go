// Package regonce proves every obs metric family is registered exactly
// once with a non-empty HELP string — at build time, instead of at the
// first scrape panic (obs.Registry.register panics on duplicates at
// runtime; this moves the check into CI).
//
// Family names must be resolvable to compile-time constants. The one
// indirection the repo uses is supported: an unexported helper (func or
// closure, e.g. metrics.go's walGauge/loadSample) that forwards a name
// parameter into a registration call is resolved through its same-
// package call sites, each contributing its constant argument.
// Exported helpers (obs.RegisterBuildInfo) are skipped at declaration
// and checked at their call sites instead.
package regonce

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"corrfuselint/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "regonce",
	Doc:  "every metric family registered exactly once, HELP non-empty, names compile-time resolvable",
	Run:  run,
}

// regMethods maps Registry method names to (name, help) argument
// positions; help < 0 means the method takes no help string.
var regMethods = map[string][2]int{
	"Counter":      {0, 1},
	"CounterVec":   {0, 1},
	"GaugeFunc":    {0, 1},
	"SampleFunc":   {0, 1},
	"Histogram":    {0, 1},
	"HistogramVec": {0, 1},
}

// regFuncs are package-level registration helpers: RegisterBuildInfo
// takes the registry first and the family name second.
var regFuncs = map[string][2]int{
	"RegisterBuildInfo": {1, -1},
}

type regSite struct {
	name string
	pos  token.Pos
}

func run(pass *lint.Pass) error {
	idx := buildIndex(pass)
	seen := map[string]token.Pos{}
	record := func(name string, pos token.Pos) {
		if first, dup := seen[name]; dup {
			pass.Reportf(pos, "metric family %q is registered more than once (first at %s); obs.Registry panics on duplicates at runtime",
				name, pass.Fset.Position(first))
			return
		}
		seen[name] = pos
	}

	for _, f := range pass.Files {
		lint.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			nameIdx, helpIdx, ok := registrationCall(pass, call)
			if !ok {
				return true
			}
			if len(call.Args) <= nameIdx {
				return true
			}
			for _, site := range resolveArg(pass, idx, stack, call.Args[nameIdx], "family name") {
				record(site.name, site.pos)
			}
			if helpIdx >= 0 && helpIdx < len(call.Args) {
				for _, site := range resolveArg(pass, idx, stack, call.Args[helpIdx], "HELP string") {
					if strings.TrimSpace(site.name) == "" {
						pass.Reportf(site.pos, "metric family registered with an empty HELP string: name the signal so dashboards and the exposition lint can rely on it")
					}
				}
			}
			return true
		})
	}
	return nil
}

// registrationCall matches r.Counter(...)-style Registry method calls
// and package-level registration funcs, returning argument positions.
func registrationCall(pass *lint.Pass, call *ast.CallExpr) (nameIdx, helpIdx int, ok bool) {
	name := lint.CalleeName(call)
	if pos, isMethod := regMethods[name]; isMethod {
		recv := lint.Receiver(call)
		if recv == nil {
			return 0, 0, false
		}
		named := lint.NamedType(pass.Info.Types[recv].Type)
		if named == nil || named.Obj().Name() != "Registry" {
			return 0, 0, false
		}
		return pos[0], pos[1], true
	}
	if pos, isFunc := regFuncs[name]; isFunc {
		obj := lint.Callee(pass.Info, call)
		if _, isFn := obj.(*types.Func); !isFn {
			return 0, 0, false
		}
		return pos[0], pos[1], true
	}
	return 0, 0, false
}

// resolveArg resolves one registration argument to constant strings:
// directly constant, or — when it is a parameter of the enclosing
// unexported function/closure — through that helper's same-package call
// sites (one level). Unresolvable arguments are reported; parameters of
// exported functions are deferred to their callers.
func resolveArg(pass *lint.Pass, idx *pkgIndex, stack []ast.Node, arg ast.Expr, what string) []regSite {
	arg = ast.Unparen(arg)
	if s, ok := constString(pass, arg); ok {
		return []regSite{{name: s, pos: arg.Pos()}}
	}
	if id, ok := arg.(*ast.Ident); ok {
		obj := pass.Info.Uses[id]
		if owner, paramIdx := idx.paramOf(pass, stack, obj); owner != nil {
			if fn, ok := owner.(*types.Func); ok && fn.Exported() {
				return nil // checked at the exported helper's call sites
			}
			callers := idx.callsByObj[owner]
			if len(callers) == 0 {
				pass.Reportf(arg.Pos(), "cannot prove this %s is registered once: helper %s has no resolvable call sites in this package", what, owner.Name())
				return nil
			}
			var out []regSite
			for _, c := range callers {
				if paramIdx >= len(c.Args) {
					continue
				}
				ca := ast.Unparen(c.Args[paramIdx])
				if s, ok := constString(pass, ca); ok {
					out = append(out, regSite{name: s, pos: ca.Pos()})
				} else {
					pass.Reportf(ca.Pos(), "%s passed to registration helper %s is not a compile-time constant", what, owner.Name())
				}
			}
			return out
		}
	}
	pass.Reportf(arg.Pos(), "%s is not a compile-time constant: regonce cannot prove the family is registered exactly once", what)
	return nil
}

func constString(pass *lint.Pass, e ast.Expr) (string, bool) {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// pkgIndex caches the package's call graph fragments regonce needs.
type pkgIndex struct {
	// callsByObj lists the package's call sites per callee object
	// (functions and closure variables alike).
	callsByObj map[types.Object][]*ast.CallExpr
	// litOwner maps closure literals to the variable object they are
	// bound to (walGauge := func(...)).
	litOwner map[*ast.FuncLit]types.Object
}

func buildIndex(pass *lint.Pass) *pkgIndex {
	idx := &pkgIndex{
		callsByObj: map[types.Object][]*ast.CallExpr{},
		litOwner:   map[*ast.FuncLit]types.Object{},
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if obj := lint.Callee(pass.Info, n); obj != nil {
					idx.callsByObj[obj] = append(idx.callsByObj[obj], n)
				} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if vobj := pass.Info.Uses[id]; vobj != nil {
						idx.callsByObj[vobj] = append(idx.callsByObj[vobj], n)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							idx.litOwner[lit] = obj
						} else if obj := pass.Info.Uses[id]; obj != nil {
							idx.litOwner[lit] = obj
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if lit, ok := v.(*ast.FuncLit); ok && i < len(n.Names) {
						if obj := pass.Info.Defs[n.Names[i]]; obj != nil {
							idx.litOwner[lit] = obj
						}
					}
				}
			}
			return true
		})
	}
	return idx
}

// paramOf reports whether obj is a parameter of the function enclosing
// the current node (per the ancestor stack), returning the enclosing
// function's object (FuncDecl object or closure variable) and the
// flattened parameter index.
func (idx *pkgIndex) paramOf(pass *lint.Pass, stack []ast.Node, obj types.Object) (types.Object, int) {
	if obj == nil {
		return nil, 0
	}
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		var owner types.Object
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			ft, owner = n.Type, idx.litOwner[n]
		case *ast.FuncDecl:
			ft, owner = n.Type, pass.Info.Defs[n.Name]
		default:
			continue
		}
		pi := 0
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if pass.Info.Defs[name] == obj {
					return owner, pi
				}
				pi++
			}
		}
		return nil, 0 // obj is not a parameter of the innermost function
	}
	return nil, 0
}
