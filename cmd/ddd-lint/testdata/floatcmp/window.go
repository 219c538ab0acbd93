package floatcmp

// Coincide reports whether a, delayed by da, and b, delayed by db,
// arrive at one instant.
func Coincide(a, b Step, da, db float64) bool {
	return a.T+da == b.T+db //lint:ignore floateq arrivals match exactly or the pins are taken to differ
}
