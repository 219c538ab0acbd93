package main

import "testing"

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
