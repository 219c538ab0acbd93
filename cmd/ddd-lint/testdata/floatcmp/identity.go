// Package floatcmp is the ddd-lint driver's test fixture: two exact
// float compares, each documented with a //lint:ignore floateq
// directive, so the driver's summary, -json and -v output have known
// suppressed findings to report.
package floatcmp

// Step is one transition of a waveform.
type Step struct {
	T float64
	V bool
}

// Same reports whether two waveforms are identical.
func Same(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].V != b[i].V { //lint:ignore floateq waveform identity is exact: both sides are the same float sums
			return false
		}
	}
	return true
}
