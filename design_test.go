package nimbus_bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pinnedList matches one "*pinned by: A, B*" list in DESIGN.md; a list may
// wrap across lines.
var pinnedList = regexp.MustCompile(`\*pinned by:([^*]*)\*`)

// TestDesignPinsNameTests holds DESIGN.md to its word: every test a
// "pinned by" list names must exist as a func in some _test.go file, so a
// renamed or deleted test cannot leave an invariant claiming a guard it
// no longer has.
func TestDesignPinsNameTests(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range pinnedList.FindAllStringSubmatch(string(doc), -1) {
		names = append(names, strings.Fields(strings.ReplaceAll(m[1], ",", " "))...)
	}
	if len(names) == 0 {
		t.Fatal(`DESIGN.md has no "pinned by" lists`)
	}
	var tests strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		tests.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.Contains(tests.String(), "func "+name+"(") {
			t.Errorf("DESIGN.md pins an invariant on %s, but no _test.go file defines it", name)
		}
	}
}
