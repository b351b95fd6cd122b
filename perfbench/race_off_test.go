//go:build !race

package main

// raceEnabled reports whether the race detector instrumented this test
// binary; allocation-count checks skip under it.
const raceEnabled = false
