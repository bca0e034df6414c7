//go:build race

package pipeline_test

// raceDetectorOn: see race_off_test.go.
const raceDetectorOn = true
