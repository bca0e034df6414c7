//go:build !race

package pipeline_test

// raceDetectorOn reports whether the race detector is compiled in. It
// slows the timing loop ~20×, so under -race the heavy recycling test
// checks one paper workload instead of all four.
const raceDetectorOn = false
