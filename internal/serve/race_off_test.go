//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this
// build. The float sweep, which shares no memory, samples fewer random
// values under it.
const raceEnabled = false
