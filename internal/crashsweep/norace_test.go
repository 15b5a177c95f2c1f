//go:build !race

package crashsweep

// raceBuild reports whether the race detector is on: its instrumentation
// allocates objects of its own, which allocation counts must not bound.
const raceBuild = false
