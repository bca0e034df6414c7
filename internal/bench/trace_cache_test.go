package bench

import (
	"reflect"
	"testing"

	"specguard/internal/interp"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
)

// TestTraceReplayMatchesLiveStats pins the harness's trace-replay
// simulation path to the live-interpreter path bit-for-bit: the packed
// trace must drive the pipeline to the exact Stats a fresh Interp
// would.
func TestTraceReplayMatchesLiveStats(t *testing.T) {
	w := Grep()
	r := NewRunner()
	res, err := r.Run(w, SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}

	code, err := interp.Predecode(w.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := code.NewMachine(interp.Options{})
	if err := w.Init(m); err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.Config{Model: r.Model, Predictor: predict.NewTwoBit(r.Model.PredictorEntries)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := pipe.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, live) {
		t.Errorf("trace-replay Stats differ from a live machine's:\nreplay: %+v\nlive:   %+v", res.Stats, live)
	}
}

// TestSweepReusesTraces is the headline reuse property: a predictor
// table sweep re-simulates timing without re-interpreting. One full
// table is two architectural runs per workload (the profiling run,
// shared by 2-bitBP and PerfectBP, plus the Proposed rewrite); a second
// sweep at a different table size adds zero.
func TestSweepReusesTraces(t *testing.T) {
	r := NewRunner()
	first, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := int64(2 * len(All()))
	if got := r.ArchRuns(); got != wantRuns {
		t.Fatalf("after first sweep: ArchRuns = %d, want %d", got, wantRuns)
	}

	r.PredictorEntries = 4
	second, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ArchRuns(); got != wantRuns {
		t.Errorf("after resized sweep: ArchRuns = %d, want %d (sweep must hit the trace cache)", got, wantRuns)
	}

	// Sanity: the sweep actually changed the timing question — a 4-entry
	// table must cost some workload cycles vs the model default — while
	// the perfect-prediction bound, which ignores the table, is unmoved.
	changed := false
	for i := range first {
		if first[i].Scheme == SchemePerfect {
			if !reflect.DeepEqual(first[i].Stats, second[i].Stats) {
				t.Errorf("%s/PerfectBP changed across table sizes", first[i].Workload)
			}
			continue
		}
		if !reflect.DeepEqual(first[i].Stats, second[i].Stats) {
			changed = true
		}
	}
	if !changed {
		t.Error("shrinking the predictor table to 4 entries changed no 2-bit Stats")
	}
}
