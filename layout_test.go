package corrfuse_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLayoutNamesEveryPackage: README's Layout section is the tree's
// consumer ledger — one line per package naming the binary or figure that
// needs it. A package directory the section does not name has no stated
// consumer, which is how the periphery grew; adding one means adding its
// line.
func TestLayoutNamesEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(raw), "\n## Layout\n")
	if !ok {
		t.Fatal("README.md has no ## Layout section")
	}
	if next := strings.Index(layout, "\n## "); next >= 0 {
		layout = layout[:next]
	}
	dirs := []string{"tools/corrfuselint"}
	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				if dir := filepath.ToSlash(filepath.Dir(path)); !slices.Contains(dirs, dir) {
					dirs = append(dirs, dir)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		if !strings.Contains(layout, "`"+dir+"`") {
			t.Errorf("README's Layout section does not name `%s`: add its line, with the consumer that needs it", dir)
		}
	}
}
