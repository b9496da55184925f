//go:build !race

package mtree

const raceEnabled = false
