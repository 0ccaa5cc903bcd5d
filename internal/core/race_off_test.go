//go:build !race

package core

// raceEnabled reports whether the race detector instruments this
// build; allocation assertions are skipped under -race, which
// instruments and alters allocation (sync.Pool drops items at random).
const raceEnabled = false
