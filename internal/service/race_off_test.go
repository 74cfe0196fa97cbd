//go:build !race

package service

// raceEnabled lets heap-accounting tests skip under the race detector,
// whose shadow memory and instrumentation distort allocation sizes.
const raceEnabled = false
