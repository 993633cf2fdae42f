package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directive is one //lint:ignore comment: the analyzers it names, each
// mapped to whether the directive has suppressed a diagnostic of it.
type directive struct {
	pos   token.Position
	names map[string]bool
}

// lineKey addresses one source line.
type lineKey struct {
	file string
	line int
}

// ignoreSet holds a package's directives, indexed by the lines they cover.
type ignoreSet struct {
	all    []*directive
	byLine map[lineKey][]*directive
}

// match reports whether a directive suppresses d, and records the use.
func (s *ignoreSet) match(d Diagnostic) bool {
	hit := false
	for _, dir := range s.byLine[lineKey{d.Pos.Filename, d.Pos.Line}] {
		for _, n := range []string{d.Analyzer, "*"} {
			if _, named := dir.names[n]; named {
				dir.names[n] = true
				hit = true
			}
		}
	}
	return hit
}

// unused reports every directive that names an analyzer in ran and
// suppressed no diagnostic of it: a suppression that suppresses nothing is
// a stale exception, and counting it as a live one hides what the analyzer
// really needs excused. Names of analyzers that did not run (-only) and the
// "*" wildcard are not judged.
func (s *ignoreSet) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.all {
		for n, used := range dir.names {
			if ran[n] && !used {
				out = append(out, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "lintdirective",
					Message:  fmt.Sprintf("//lint:ignore %s matched no %s diagnostic; delete the directive", n, n),
				})
			}
		}
	}
	return out
}

// scanIgnores collects //lint:ignore directives from a package's files.
//
// Syntax (staticcheck-compatible):
//
//	//lint:ignore analyzer1,analyzer2 reason the finding is intentional
//
// The directive suppresses matching diagnostics on its own line and on
// the line directly below it, so it works both inline after a statement
// and as a standalone comment above one. A directive without a reason
// is itself reported: a suppression whose justification nobody wrote
// down is exactly the silent exception this tool exists to prevent.
func scanIgnores(fset *token.FileSet, files []*ast.File) (*ignoreSet, []Diagnostic) {
	set := &ignoreSet{byLine: make(map[lineKey][]*directive)}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				body, ok := strings.CutPrefix(rest, "lint:ignore")
				if !ok || (body != "" && body[0] != ' ' && body[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(body)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lintdirective",
						Message:  "malformed //lint:ignore: need analyzer names and a reason",
					})
					continue
				}
				dir := &directive{pos: pos, names: make(map[string]bool)}
				for _, n := range strings.Split(fields[0], ",") {
					if n = strings.TrimSpace(n); n != "" {
						dir.names[n] = false
					}
				}
				set.all = append(set.all, dir)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := lineKey{pos.Filename, line}
					set.byLine[k] = append(set.byLine[k], dir)
				}
			}
		}
	}
	return set, bad
}
