//go:build race

package spatial

// raceEnabled lets allocation-counting tests skip under the race detector,
// whose instrumentation allocates behind the scenes.
const raceEnabled = true
