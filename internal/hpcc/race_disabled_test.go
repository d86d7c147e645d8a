//go:build !race

package hpcc

const raceEnabled = false
