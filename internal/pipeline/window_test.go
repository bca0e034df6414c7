package pipeline_test

import (
	"testing"

	"specguard/internal/bench"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/trace"
)

// TestWindowMemLastBounded: over the compress trace, which touches tens
// of thousands of distinct addresses, the shared window's
// disambiguation table holds at most chunk + horizon addresses (the
// accesses it has not yet pruned) and never grows past its initial
// size.
func TestWindowMemLastBounded(t *testing.T) {
	w := bench.Compress()
	code, err := interp.Predecode(w.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := trace.Capture(code, interp.Options{}, w.Init, nil)
	if err != nil {
		t.Fatal(err)
	}
	deep := machine.R10000()
	deep.ActiveList = 64
	cfgs := []pipeline.Config{
		{Model: machine.R10000(), Predictor: predict.NewTwoBit(512)},
		{Model: deep, Predictor: predict.NewPerfect()},
	}
	peak, capacity, chunk, horizon, err := pipeline.WindowMemPeak(tr.NewReader(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 64 {
		t.Fatalf("horizon = %d, want the largest lane ActiveList, 64", horizon)
	}

	addrs := map[int64]bool{}
	rd := tr.NewReader()
	for {
		ev, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if ev.IsMem && !ev.Annulled {
			addrs[ev.MemAddr] = true
		}
	}
	bound := chunk + horizon
	if int64(len(addrs)) < 16*bound {
		t.Fatalf("compress touches %d distinct addresses, too few to test a bound of %d", len(addrs), bound)
	}
	if int64(peak) > bound {
		t.Errorf("disambiguation table peaked at %d addresses, want ≤ chunk + horizon = %d (trace: %d distinct)", peak, bound, len(addrs))
	}
	if int64(capacity) > 8*bound {
		t.Errorf("disambiguation table grew to %d slots, want its initial ≤ %d", capacity, 8*bound)
	}
}
