//go:build race

package nic

// raceEnabled reports whether the race detector is active; allocation-count
// tests skip under -race because its instrumentation allocates.
const raceEnabled = true
