//go:build race

package trace

// raceEnabled shortens the long stream-identity tests under the race
// detector, whose instrumentation slows the generator about tenfold.
const raceEnabled = true
