// Package lint is a stdlib-only analysis framework with the shape of
// golang.org/x/tools/go/analysis: analyzers receive a typed package (a
// Pass) and report position-anchored diagnostics. The build container
// pins the main module to zero third-party dependencies, so instead of
// depending on x/tools this package re-implements the thin slice of it
// corrfuselint needs — a loader (load.go), the Analyzer/Pass contract
// (this file), and //lint:ignore suppression (ignore.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports findings; it is called once per target package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc is the one-line invariant the analyzer guards.
	Doc string
	Run func(*Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one typed package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// PkgPath is the package's import path (fixture modules get their
	// own paths; path-scoped analyzers match on suffixes/substrings).
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info
	// Marked reports whether the declaration of obj carries the given
	// //corrfuse:<marker> directive in its doc comment, program-wide
	// (annotations on any loaded target package are visible).
	Marked func(obj types.Object, marker string) bool
	// Program is the whole loaded graph, for analyzers whose question
	// (who references this?) spans packages.
	Program *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every target package of the program and
// returns the surviving diagnostics sorted by position: findings on
// lines carrying (or immediately following) a matching //lint:ignore
// directive are dropped, and malformed directives — and directives that
// suppressed nothing of an analyzer that ran — are themselves reported.
// The error aggregates analyzer failures, not findings.
func (prog *Program) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range prog.Targets() {
		ignores, bad := scanIgnores(prog.Fset, pkg.Files)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				PkgPath:  pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Marked:   prog.Marked,
				Program:  prog,
			}
			pass.report = func(d Diagnostic) {
				if ignores.match(d) {
					return
				}
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, ignores.unused(ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// WalkStack traverses root in source order calling fn with each node and
// its ancestor stack (outermost first, not including n). Returning false
// prunes the subtree below n.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
			return true
		}
		return false
	})
}
