//go:build !race

package imgcodec

const raceEnabled = false
