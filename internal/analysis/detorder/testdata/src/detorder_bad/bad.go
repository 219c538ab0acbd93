// Package detorder_bad leaks randomized map iteration order into
// serialized output — the patterns detorder exists to reject.
package detorder_bad

import (
	"fmt"
	"io"
	"sort"
)

// emit serializes in map order: the bytes differ run to run.
func emit(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt.Fprintf inside a map-range loop`
	}
}

// concat accumulates a string in map order.
func concat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `string concatenation into "s" inside a map-range loop`
	}
	return s
}

// branchSort is the flow-sensitive case a syntactic check misses: the
// collect-then-sort shape is present, but only one branch sorts, so
// the other path returns the keys in map order.
func branchSort(m map[string]int, ordered bool) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	if ordered {
		sort.Strings(keys)
	}
	return keys // want `"keys" collects map-range keys \(append at line 33\)`
}

// toCallee hands the unsorted collection to a callee that serializes.
func toCallee(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return consume(keys) // want `"keys" collects map-range keys \(append at line 45\)`
}

func consume(keys []string) int { return len(keys) }

// reRange iterates the unsorted collection: downstream order is still
// the map's.
func reRange(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	n := 0
	for _, k := range keys { // want `"keys" collects map-range keys \(append at line 57\)`
		n += len(k)
	}
	return n
}

// deferredSink hands the unsorted collection to a deferred printer:
// Go evaluates the deferred arguments at the defer statement.
func deferredSink(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	defer fmt.Fprintln(w, keys) // want `"keys" collects map-range keys \(append at line 71\)`
}
