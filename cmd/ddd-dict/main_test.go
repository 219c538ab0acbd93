package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMissingDictionaryFile checks that info and diagnose report a
// missing dictionary argument as an error instead of panicking.
func TestMissingDictionaryFile(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func([]string) error
	}{{"info", info}, {"diagnose", diagnose}} {
		if err := c.run(nil); err == nil {
			t.Errorf("%s(nil) returned no error", c.name)
		}
	}
}

// stdout runs fn with os.Stdout sent to a file and returns what fn
// printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDiagnoseK checks that diagnose prints the first k candidates of
// a mini dictionary, and every suspect at k <= 0 and at a k above the
// suspect count.
func TestDiagnoseK(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mini.dict")
	stdout(t, func() error { return build([]string{"-profile", "mini", "-o", path}) })
	cd, _, err := loadDict(path)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cd.Suspects)
	candidate := regexp.MustCompile(`(?m)^ +\d+\. arc `)
	for _, c := range []struct{ k, want int }{{-1, n}, {0, n}, {1, 1}, {n + 1, n}} {
		out := stdout(t, func() error {
			return diagnose([]string{path, "-profile", "mini", "-k", strconv.Itoa(c.k)})
		})
		header := fmt.Sprintf("Alg_rev top %d of %d stored suspects:", c.want, n)
		if got := len(candidate.FindAllString(out, -1)); got != c.want || !strings.Contains(out, header) {
			t.Errorf("-k %d: %d candidates printed, want %d under %q:\n%s", c.k, got, c.want, header, out)
		}
	}
}
