//go:build race

package mtree

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a share of Puts on purpose, so the zero-allocation
// gates cannot hold and skip themselves.
const raceEnabled = true
