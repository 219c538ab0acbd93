package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	fuzzFunc   = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	fuzzRecipe = regexp.MustCompile(`^\t\$\(GO\) test (\S+) -fuzz=(\w+)\b`)
)

// TestMakeFuzzRunsEveryFuzzer fails when a fuzz test of the root module
// is missing from the Makefile's fuzz target, so that `make fuzz`
// exercises every fuzzer, and when a fuzz recipe names a fuzzer that
// no _test.go file of its package defines: `go test -fuzz` with a
// pattern that matches nothing passes without fuzzing anything.
// Nested modules (cmd/ddd-e2e) and testdata trees are not part of the
// root module and are skipped.
func TestMakeFuzzRunsEveryFuzzer(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	inMake := make(map[string]bool)
	inTarget := false
	for _, line := range strings.Split(string(mk), "\n") {
		if !strings.HasPrefix(line, "\t") {
			inTarget = strings.HasPrefix(line, "fuzz:")
			continue
		}
		if m := fuzzRecipe.FindStringSubmatch(line); inTarget && m != nil {
			inMake[m[1]+" "+m[2]] = true
		}
	}
	if len(inMake) == 0 {
		t.Fatal("Makefile has no fuzz target recipes")
	}

	defined := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			defined[pkg+" "+string(m[1])] = true
			if !inMake[pkg+" "+string(m[1])] {
				t.Errorf("%s: %s is not run by the Makefile's fuzz target; add `$(GO) test %s -fuzz=%s -fuzztime 30s`", path, m[1], pkg, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("found no fuzz tests in the module")
	}
	recipes := make([]string, 0, len(inMake))
	for recipe := range inMake {
		recipes = append(recipes, recipe)
	}
	sort.Strings(recipes)
	for _, recipe := range recipes {
		if !defined[recipe] {
			pkg, name, _ := strings.Cut(recipe, " ")
			t.Errorf("the Makefile's fuzz target runs %s in %s, which no _test.go file there defines", name, pkg)
		}
	}
}
