package bench

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"specguard/internal/interp"
)

// baseEntry returns w's base program's cache entry and its code.
func baseEntry(t *testing.T, r *Runner, w Workload) (*program, *interp.Code) {
	t.Helper()
	e := entry(r, r.programs, programKey{w.Name, w.Fingerprint()})
	code, err := r.codeOf(e, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, code
}

// idleMachines returns how many idle machines e holds, and fails the
// test if one of them stopped before its program's end.
func idleMachines(t *testing.T, r *Runner, e *program) int {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range e.idle {
		if !m.Halted() {
			t.Errorf("idle machine %d stopped part-way, after %d steps", i, m.Steps())
		}
	}
	return len(e.idle)
}

// drainAll runs m to its end, discarding the events.
func drainAll(t *testing.T, m *interp.Machine) {
	t.Helper()
	var ev interp.Event
	for {
		ok, err := m.NextInto(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}

// TestRecycledMachineMatchesFresh: after a cell of each kernel, the
// machine that profiled it and then fed the cell's drain is idle. Taken
// again, reset, it runs the kernel once more allocating nothing, and it
// emits event for event what a fresh machine whose memory Init wrote
// emits.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	for _, w := range All() {
		r := NewRunner()
		if _, err := r.RunSpec(context.Background(), Spec{Workload: w, Scheme: SchemeTwoBit}); err != nil {
			t.Fatal(err)
		}
		e, code := baseEntry(t, r, w)
		if n := idleMachines(t, r, e); n != 1 || r.ArchRuns() != 1 {
			t.Fatalf("%s: %d idle machines after %d built, want the profiling run's one", w.Name, n, r.ArchRuns())
		}
		if !raceDetectorOn {
			allocs := testing.AllocsPerRun(2, func() {
				m, err := r.machine(e, code, w)
				if err != nil {
					t.Fatal(err)
				}
				drainAll(t, m)
				r.release(e, m)
			})
			if allocs != 0 {
				t.Errorf("%s: a recycled machine's run allocated %.0f objects, want 0", w.Name, allocs)
			}
		}

		recycled, err := r.machine(e, code, w)
		if err != nil {
			t.Fatal(err)
		}
		fresh := code.NewMachine(interp.Options{})
		if err := w.Init(fresh); err != nil {
			t.Fatal(err)
		}
		var got, want interp.Event
		for n := 0; ; n++ {
			ok, err := recycled.NextInto(&got)
			okF, errF := fresh.NextInto(&want)
			if err != nil || errF != nil || ok != okF {
				t.Fatalf("%s: event %d: recycled (%v, %v), fresh (%v, %v)", w.Name, n, ok, err, okF, errF)
			}
			if !ok {
				break
			}
			if !got.SameArch(&want) {
				t.Fatalf("%s: event %d differs:\nrecycled: %+v\nfresh:    %+v", w.Name, n, got, want)
			}
		}
		if r.ArchRuns() != 1 {
			t.Errorf("%s: %d machines built, want 1", w.Name, r.ArchRuns())
		}
	}
}

// TestSweepReusesTraces is the headline reuse property: a predictor
// table sweep re-simulates timing without building a machine. One full
// table builds two machines per workload (the profiling run's, which
// the 2-bitBP and PerfectBP drain reuses, plus the Proposed
// rewrite's); a second sweep at a different table size reruns both
// programs on those machines and builds none.
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
		t.Errorf("after resized sweep: ArchRuns = %d, want %d (sweep must reuse the idle machines)", got, wantRuns)
	}
	for k, e := range r.programs {
		if n := idleMachines(t, r, e); n != 1 {
			t.Errorf("%s/%016x: %d idle machines, want 1", k.workload, k.fp, n)
		}
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

// TestCancelledDrainDropsMachine: a call cancelled inside its timing
// run — a one-cell call, whose drain is one Pipeline.Run, and a
// two-cell call, whose drain the lane scheduler runs — drops the
// machine its drain took instead of leaving it idle half-run. The next
// call builds a fresh machine and gets the golden Stats.
func TestCancelledDrainDropsMachine(t *testing.T) {
	w := Grep()
	want := goldenCell(t, w.Name, SchemeTwoBit)
	for name, specs := range map[string][]Spec{
		"one cell":  {{Workload: w, Scheme: SchemeTwoBit}},
		"two cells": {{Workload: w, Scheme: SchemeTwoBit}, {Workload: w, Scheme: SchemePerfect}},
	} {
		r := NewRunner()
		if _, err := r.ProfileOf(w); err != nil {
			t.Fatal(err)
		}
		e, _ := baseEntry(t, r, w)
		if n := idleMachines(t, r, e); n != 1 {
			t.Fatalf("%s: %d idle machines after profiling, want 1", name, n)
		}
		ctx := &cancelInRun{Context: context.Background()}
		if _, err := r.RunSpecs(ctx, specs); !errors.Is(err, context.Canceled) || !ctx.started.Load() {
			t.Fatalf("%s: cancelled run = %v (timing run started: %v), want context.Canceled from inside the run", name, err, ctx.started.Load())
		}
		if n := idleMachines(t, r, e); n != 0 || r.ArchRuns() != 1 {
			t.Fatalf("%s: the cancelled drain left %d idle machines of %d built, want 0 of 1", name, n, r.ArchRuns())
		}
		res, err := r.RunSpecs(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if n := idleMachines(t, r, e); n != 1 || r.ArchRuns() != 2 {
			t.Errorf("%s: after the next call %d idle machines of %d built, want 1 of 2", name, n, r.ArchRuns())
		}
		if got := mustJSON(t, res[0].Stats); !bytes.Equal(got, want) {
			t.Errorf("%s: Stats after a cancelled run differ from golden\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestRunContextCancelled: an already-cancelled context aborts a
// one-cell and a table-sized call before any architectural or timing
// work, and a subsequent un-cancelled call still succeeds (cancellation
// must not poison the caches).
func TestRunContextCancelled(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	one := Spec{Workload: Grep(), Scheme: SchemeTwoBit}
	if _, err := r.RunSpec(ctx, one); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSpec with cancelled ctx = %v, want context.Canceled", err)
	}
	var table []Spec
	for _, w := range All() {
		for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
			table = append(table, Spec{Workload: w, Scheme: s})
		}
	}
	if _, err := r.RunSpecs(ctx, table); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSpecs with cancelled ctx = %v, want context.Canceled", err)
	}
	if got := r.ArchRuns(); got != 0 {
		t.Errorf("cancelled calls built %d machines", got)
	}

	res, err := r.RunSpec(context.Background(), one)
	if err != nil {
		t.Fatalf("RunSpec after cancelled calls: %v", err)
	}
	if res.Stats.Cycles == 0 {
		t.Error("post-cancellation run produced empty Stats")
	}
}
