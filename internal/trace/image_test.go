package trace_test

import (
	"testing"

	"specguard/internal/bench"
	"specguard/internal/interp"
	"specguard/internal/trace"
)

// TestCaptureFromImageMatchesInit: for every paper kernel, a capture
// whose machine starts from the workload's frozen input image records
// the trace a capture that runs Init into the machine records: the same
// events, Result, SizeBytes and streams. Two captures share the image,
// so the first one's writes must not reach the second.
func TestCaptureFromImageMatchesInit(t *testing.T) {
	for _, w := range bench.All() {
		code, err := interp.Predecode(w.Build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRes, err := trace.Capture(code, interp.Options{}, w.Init, nil)
		if err != nil {
			t.Fatal(err)
		}
		img, err := interp.NewImage(interp.Options{}, w.Init)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, res, err := trace.Capture(code, interp.Options{Image: img}, nil, nil)
			if err != nil {
				t.Fatalf("%s capture %d: %v", w.Name, i, err)
			}
			if got.Events() != want.Events() || res != wantRes || got.Result() != want.Result() || got.SizeBytes() != want.SizeBytes() {
				t.Errorf("%s capture %d from the image: %d events, %d bytes, Result %+v; with Init: %d events, %d bytes, Result %+v",
					w.Name, i, got.Events(), got.SizeBytes(), res, want.Events(), want.SizeBytes(), wantRes)
			}
			if s := trace.StreamDiff(got, want); s != "" {
				t.Errorf("%s capture %d from the image: %s stream differs from the capture with Init", w.Name, i, s)
			}
		}
	}
}
