package pipeline_test

import (
	"encoding/json"
	"testing"

	"specguard/internal/bench"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/trace"
)

// TestRecycledLanesMatchFresh: lanes New builds from released lanes of
// another geometry (active list 64, 16 KB caches, gshare), and then from
// released lanes of their own, give Stats byte-identical to new lanes on
// each paper workload (grep alone under -race), in a multi-lane drain
// and a one-lane drain (Pipeline.Run).
func TestRecycledLanesMatchFresh(t *testing.T) {
	a := machine.R10000()
	a.ActiveList, a.ICacheBytes, a.DCacheBytes = 64, 16<<10, 16<<10
	a.Predictor, a.HistoryBits = machine.PredGShare, 8
	b := machine.R10000()
	b.ActiveList = 24
	first := func() []pipeline.Config {
		return []pipeline.Config{
			{Model: a, Predictor: predict.NewGShare(1024, 8)},
			{Model: a, Predictor: predict.NewGShare(256, 8), TrackBranchSites: true},
			{Model: a, Predictor: predict.NewPerfect()},
			{Model: a, Predictor: predict.NewGShare(512, 8), DisableDCache: true},
		}
	}
	second := func() []pipeline.Config {
		return []pipeline.Config{
			{Model: b, Predictor: predict.NewTwoBit(512), DisableICache: true, TrackBranchSites: true},
			{Model: b, Predictor: predict.NewTwoBit(64), DisableICache: true},
			{Model: b, Predictor: predict.NewTwoBit(512)},
		}
	}
	workloads := bench.All()
	if raceDetectorOn {
		workloads = []bench.Workload{bench.Grep()}
	}
	for _, w := range workloads {
		code, err := interp.Predecode(w.Build(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := trace.Capture(code, interp.Options{}, w.Init, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func(cfgs []pipeline.Config) []byte {
			t.Helper()
			stats, err := pipeline.RunLanes(cfgs, tr.NewReader())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(stats)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		pipeline.DropFreeLanes()
		want := run(second())
		pipeline.DropFreeLanes()
		wantOne := run(second()[2:])
		pipeline.DropFreeLanes()

		run(first())
		if n := pipeline.FreeLanes(); n != len(first()) {
			t.Fatalf("%s: %d lanes free after releasing %d", w.Name, n, len(first()))
		}
		if got := run(second()); string(got) != string(want) {
			t.Errorf("%s: lanes recycled from another geometry diverge:\n got %s\nwant %s", w.Name, got, want)
		}
		if got := run(second()); string(got) != string(want) {
			t.Errorf("%s: lanes recycled from their own geometry diverge:\n got %s\nwant %s", w.Name, got, want)
		}
		if got := run(second()[2:]); string(got) != string(wantOne) {
			t.Errorf("%s: a one-lane run on a recycled lane diverges:\n got %s\nwant %s", w.Name, got, wantOne)
		}
	}
}
