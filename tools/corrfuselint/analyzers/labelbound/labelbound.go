// Package labelbound guards metric-label cardinality: a value reaching
// (*CounterVec).With / (*HistogramVec).With from request data grows one
// time series per distinct input. A label value must be provably bounded:
//
//   - a compile-time constant,
//   - the range variable of a loop over a package-level slice (the
//     pre-created endpoint/stage enumerations), or
//   - a parameter of an unexported function, method or local closure
//     whose every call site in the package passes a bounded value (serve's
//     route, span and rebuild-stage helpers take their label this way).
//
// Anything else is flagged; a bounded-by-construction value (HTTP
// status codes) may carry a //lint:ignore with the argument written out.
package labelbound

import (
	"go/ast"
	"go/token"
	"go/types"

	"corrfuselint/lint"
)

var Analyzer = &lint.Analyzer{
	Name: "labelbound",
	Doc:  "CounterVec/HistogramVec label values must be constants, bounded enumerations, or parameters every call site fills with one",
	Run:  run,
}

// param locates one parameter: the function (or closure variable) it
// belongs to and its position in the parameter list.
type param struct {
	fn    types.Object
	index int
}

// checker holds one package's facts: which objects are range variables
// over package-level slices, which are parameters of helpers whose call
// sites are all visible, and those call sites.
type checker struct {
	pass         *lint.Pass
	rangeBounded map[types.Object]bool
	params       map[types.Object]param
	calls        map[types.Object][][]ast.Expr
	// escaped holds helpers referenced other than as a call's function, and
	// parameters assigned to or address-taken: their values are not what
	// the call sites passed.
	escaped map[types.Object]bool
	// visiting breaks recursion through helpers that call each other.
	visiting map[types.Object]bool
}

func run(pass *lint.Pass) error {
	c := &checker{
		pass:         pass,
		rangeBounded: map[types.Object]bool{},
		params:       map[types.Object]param{},
		calls:        map[types.Object][][]ast.Expr{},
		escaped:      map[types.Object]bool{},
		visiting:     map[types.Object]bool{},
	}
	c.collect()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || lint.CalleeName(call) != "With" || len(call.Args) != 1 {
				return true
			}
			recv := lint.Receiver(call)
			if recv == nil {
				return true
			}
			named := lint.NamedType(pass.Info.Types[recv].Type)
			if named == nil {
				return true
			}
			if name := named.Obj().Name(); name != "CounterVec" && name != "HistogramVec" {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			if c.bounded(arg) {
				return true
			}
			pass.Reportf(arg.Pos(),
				"label value %s is not provably bounded: use a constant, a package-level enumeration, or a parameter of an unexported helper every call site fills with one, so one client cannot grow a time series per request",
				lint.Render(pass.Fset, arg))
			return true
		})
	}
	return nil
}

// collect gathers the package's range-bounded variables, the parameters of
// its unexported functions, methods and local closures, and every call site
// of those helpers.
func (c *checker) collect() {
	info := c.pass.Info
	ifaceMethods := map[string]bool{}
	addParams := func(fn types.Object, ft *ast.FuncType) {
		i := 0
		for _, field := range ft.Params.List {
			_, variadic := field.Type.(*ast.Ellipsis)
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && !variadic {
					c.params[obj] = param{fn, i}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				val, ok := n.Value.(*ast.Ident)
				if !ok {
					return true
				}
				x, ok := ast.Unparen(n.X).(*ast.Ident)
				if !ok {
					return true
				}
				if obj := info.Uses[x]; obj != nil && obj.Parent() == c.pass.Pkg.Scope() {
					if vobj := info.Defs[val]; vobj != nil {
						c.rangeBounded[vobj] = true
					}
				}
			case *ast.FuncDecl:
				if obj := info.Defs[n.Name]; obj != nil && !obj.Exported() {
					addParams(obj, n.Type)
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					id, ok := n.Lhs[0].(*ast.Ident)
					lit, isLit := n.Rhs[0].(*ast.FuncLit)
					if ok && isLit {
						if obj := info.Defs[id]; obj != nil {
							addParams(obj, lit.Type)
						}
					}
				}
				// A short declaration may redeclare, and so assign, a
				// variable already in scope; Uses records those.
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						c.escaped[info.Uses[id]] = true
					}
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					c.escaped[info.Uses[id]] = true
				}
			case *ast.UnaryExpr:
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && n.Op == token.AND {
					c.escaped[info.Uses[id]] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}

	// A helper's call sites: every reference to it must be the function of
	// a call, or some caller is out of sight.
	helpers := map[types.Object]bool{}
	for _, p := range c.params {
		helpers[p.fn] = true
	}
	for _, f := range c.pass.Files {
		lint.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if !helpers[obj] {
				return true
			}
			var ref ast.Node = id
			if len(stack) > 0 {
				if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.Sel == id {
					ref = sel
					stack = stack[:len(stack)-1]
				}
			}
			for len(stack) > 0 {
				p, ok := stack[len(stack)-1].(*ast.ParenExpr)
				if !ok {
					break
				}
				ref = p
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				if call, ok := stack[len(stack)-1].(*ast.CallExpr); ok && call.Fun == ref && !call.Ellipsis.IsValid() {
					c.calls[obj] = append(c.calls[obj], call.Args)
					return true
				}
			}
			c.escaped[obj] = true
			return true
		})
	}
	// An unexported method a package interface names may be called through
	// the interface, where its call sites do not resolve to it.
	for fn := range helpers {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && ifaceMethods[fn.Name()] {
			c.escaped[fn] = true
		}
	}
}

func (c *checker) bounded(arg ast.Expr) bool {
	info := c.pass.Info
	// Compile-time constant (literal, const, concatenation thereof).
	if tv, ok := info.Types[arg]; ok && tv.Value != nil {
		return true
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	// Range variable over a package-level enumeration.
	if c.rangeBounded[obj] {
		return true
	}
	// Parameter of a helper whose every call site passes a bounded value.
	p, ok := c.params[obj]
	if !ok || c.escaped[obj] || c.escaped[p.fn] || c.visiting[obj] || len(c.calls[p.fn]) == 0 {
		return false
	}
	c.visiting[obj] = true
	defer delete(c.visiting, obj)
	for _, args := range c.calls[p.fn] {
		if p.index >= len(args) || !c.bounded(ast.Unparen(args[p.index])) {
			return false
		}
	}
	return true
}
