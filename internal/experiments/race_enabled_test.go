//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in. The
// substrate-bytes gate skips under -race: instrumentation inflates heap
// figures past what the substrate itself holds.
const raceEnabled = true
