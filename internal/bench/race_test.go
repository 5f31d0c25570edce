//go:build race

package bench

// raceEnabled reports a -race build (see TestInstallBytesPerPair).
const raceEnabled = true
