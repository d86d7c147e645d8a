//go:build race

package imgcodec

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: instrumentation inflates allocation
// counts.
const raceEnabled = true
