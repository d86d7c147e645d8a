//go:build race

package hpcc

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: instrumentation inflates allocation
// totals far past what the halo round itself spends.
const raceEnabled = true
