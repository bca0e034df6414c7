package pipeline

import (
	"reflect"
	"testing"

	"specguard/internal/machine"
	"specguard/internal/predict"
)

// throttledModel returns the R10000 with the variable fetch-rate front
// end enabled at width w.
func throttledModel(w int) *machine.Model {
	m := machine.R10000()
	m.ThrottledFetchWidth = w
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// TestThrottleSlowsFetch: with the throttle at width 1, a loop whose
// backward branch is predicted taken must take strictly more cycles
// than the fixed-rate front end, while committing the same instruction
// stream — the throttle is a timing knob, never an architectural one.
func TestThrottleSlowsFetch(t *testing.T) {
	p := batchProgram(t)

	run := func(m *machine.Model) Stats {
		pipe, err := New(Config{Model: m, Predictor: predict.NewTwoBit(512), SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		s, err := pipe.Run(freshSource(t, p))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	fixed := run(machine.R10000())
	slow := run(throttledModel(1))
	if slow.Committed != fixed.Committed {
		t.Fatalf("throttle changed the committed stream: %d vs %d", slow.Committed, fixed.Committed)
	}
	if slow.Cycles <= fixed.Cycles {
		t.Errorf("throttle width 1 did not slow the run: %d vs %d cycles", slow.Cycles, fixed.Cycles)
	}
	if slow.Mispredicts != fixed.Mispredicts {
		t.Errorf("throttle changed mispredicts: %d vs %d", slow.Mispredicts, fixed.Mispredicts)
	}

	// Throttling at the full width is the fixed-rate machine: the
	// unconfirmed counter is live but the bound never narrows.
	same := run(throttledModel(4))
	same.Predictor = fixed.Predictor // fresh tables each run; predictor stats identical anyway
	if same.Cycles != fixed.Cycles || same.Committed != fixed.Committed {
		t.Errorf("throttle at full width diverged: %d/%d vs %d/%d cycles/committed",
			same.Cycles, same.Committed, fixed.Cycles, fixed.Committed)
	}
}

// TestThrottleBatchMatchesSingle pins the batched implementation of the
// variable fetch-rate front end: heterogeneous lanes (different
// throttle widths, one fixed-rate, one perfect-predictor throttled)
// must each be byte-identical to their standalone Run.
func TestThrottleBatchMatchesSingle(t *testing.T) {
	p := batchProgram(t)

	models := []*machine.Model{
		machine.R10000(),
		throttledModel(1),
		throttledModel(2),
		throttledModel(4),
	}
	mkCfgs := func() []Config {
		cfgs := make([]Config, 0, len(models)+1)
		for _, m := range models {
			cfgs = append(cfgs, Config{Model: m, Predictor: predict.NewTwoBit(512), SelfCheck: true})
		}
		cfgs = append(cfgs, Config{Model: throttledModel(1), Predictor: predict.NewPerfect(), SelfCheck: true})
		return cfgs
	}

	got, err := RunLanes(mkCfgs(), freshSource(t, p))
	if err != nil {
		t.Fatal(err)
	}

	for i, cfg := range mkCfgs() {
		pipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.Run(freshSource(t, p))
		if err != nil {
			t.Fatalf("single lane %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("throttled lane %d diverged from single-lane run:\nbatch:  %+v\nsingle: %+v", i, got[i], want)
		}
	}
}

// TestBatchHeterogeneousModels: lanes with different fetch widths, ROB
// depths and queue sizes (same cache geometry) share one drain and
// still match their standalone runs — the property the sweep engine's
// geometry-grouped batching relies on.
func TestBatchHeterogeneousModels(t *testing.T) {
	p := batchProgram(t)

	narrow := machine.R10000()
	narrow.IssueWidth = 2
	narrow.ActiveList = 16
	wide := machine.R10000()
	wide.IssueWidth = 8
	wide.ActiveList = 64
	wide.IntQueue, wide.AddrQueue, wide.FPQueue = 32, 32, 32
	wide.RenameRegs = 64
	for _, m := range []*machine.Model{narrow, wide} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	mkCfgs := func() []Config {
		return []Config{
			{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), SelfCheck: true},
			{Model: narrow, Predictor: predict.NewTwoBit(512), SelfCheck: true},
			{Model: wide, Predictor: predict.NewTwoBit(512), SelfCheck: true},
		}
	}
	got, err := RunLanes(mkCfgs(), freshSource(t, p))
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range mkCfgs() {
		pipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.Run(freshSource(t, p))
		if err != nil {
			t.Fatalf("single lane %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("model lane %d diverged from single-lane run:\nbatch:  %+v\nsingle: %+v", i, got[i], want)
		}
	}
}
