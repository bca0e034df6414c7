package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"specguard/internal/core"
	"specguard/internal/machine"
	"specguard/internal/prog"
)

// ablationRows are the seven optimizer configurations of sgbench's
// ablation table, in row order.
var ablationRows = []core.Options{
	{},
	{DisableLikely: true},
	{DisableGuarding: true},
	{DisableSplitting: true},
	{DisableSpeculation: true},
	{DisableGuarding: true, DisableSplitting: true, DisableSpeculation: true},
	{DisableLikely: true, DisableSplitting: true, DisableSpeculation: true},
}

// goldenCell returns one table cell's golden Stats as compact JSON.
func goldenCell(t *testing.T, workload string, s Scheme) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []goldenRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Workload == workload && rec.Scheme == s.String() {
			var b bytes.Buffer
			if err := json.Compact(&b, rec.Stats); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
	}
	t.Fatalf("no golden cell %s/%s", workload, s)
	return nil
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunMatchesRunSpecOnGShare: a cell on the Runner's own model (no
// Spec.Model) takes the predictor family from that model, so on a
// gshare model a 2-bitBP and a Proposed cell each equal the cell
// simulated alone on that model's gshare predictor (rawStats). The
// reference runs on its own Runner, so the Stats cache cannot make them
// agree.
func TestRunMatchesRunSpecOnGShare(t *testing.T) {
	gshare := func() *Runner {
		r := NewRunner()
		r.Model.Predictor = machine.PredGShare
		r.Model.HistoryBits = 8
		return r
	}
	w := Grep()
	run, err := gshare().RunSpec(context.Background(), Spec{Workload: w, Scheme: SchemeTwoBit})
	if err != nil {
		t.Fatal(err)
	}
	if want := rawStats(t, gshare(), Spec{Workload: w, Scheme: SchemeTwoBit}); !reflect.DeepEqual(run.Stats, want) {
		t.Errorf("2-bitBP cell = %d cycles, the cell alone on gshare = %d cycles", run.Stats.Cycles, want.Cycles)
	}
	opt, err := gshare().RunSpec(context.Background(), Spec{Workload: w, Scheme: SchemeProposed, Opt: &w.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if want := rawStats(t, gshare(), Spec{Workload: w, Scheme: SchemeProposed, Opt: &w.Opt}); !reflect.DeepEqual(opt.Stats, want) {
		t.Errorf("Proposed cell = %d cycles, the cell alone on gshare = %d cycles", opt.Stats.Cycles, want.Cycles)
	}
}

// TestStatsCacheDedup: one Runner evaluates what sgbench prints — the
// 12 table cells, then the seven ablation rows — and simulates each
// distinct (trace, timing configuration) once: 40 cells cost 22 lanes
// over 18 machines built, and every cell's Stats equal the same cell on a
// fresh Runner. The table is one RunSpecs call, so each workload's
// 2-bitBP and PerfectBP lanes share a drain: 18 drains, not 22.
func TestStatsCacheDedup(t *testing.T) {
	rows, wantDrains, wantLanes, wantRuns := ablationRows, int64(18), int64(22), int64(18)
	if raceDetectorOn {
		// Keep the "combined" row: it rebuilds the table's Proposed
		// programs, so all four of its cells come from the cache.
		rows, wantDrains, wantLanes, wantRuns = ablationRows[:1], 8, 12, 8
	}
	r := NewRunner()
	table, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range allResults(t) {
		if !reflect.DeepEqual(table[i].Stats, want.Stats) {
			t.Errorf("%s/%s: Stats differ from a fresh Runner's", want.Workload, want.Scheme)
		}
	}
	for i, opts := range rows {
		got, err := r.RunProposedOptsAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewRunner().RunProposedOptsAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !reflect.DeepEqual(got[j].Stats, want[j].Stats) {
				t.Errorf("ablation row %d, %s: Stats differ from a fresh Runner's", i, want[j].Workload)
			}
		}
	}
	if got := r.TraceDrains(); got != wantDrains {
		t.Errorf("TraceDrains = %d, want %d", got, wantDrains)
	}
	if got := r.SimLanes(); got != wantLanes {
		t.Errorf("SimLanes = %d, want %d", got, wantLanes)
	}
	if got := r.ArchRuns(); got != wantRuns {
		t.Errorf("ArchRuns = %d, want %d", got, wantRuns)
	}
}

// TestStatsCacheBound: a cell off the Runner's own configuration is
// never stored — a per-spec Model, even a Clone with the Runner's Key,
// and a predictor size other than the Runner's each cost a drain every
// time, through RunSpec and RunSpecs alike — so the cache holds at most
// two Stats per program.
func TestStatsCacheBound(t *testing.T) {
	r := NewRunner()
	w := Grep()
	ctx := context.Background()
	clone := Spec{Workload: w, Scheme: SchemeTwoBit, Model: machine.R10000().Clone()}
	if clone.Model.Key() != r.Model.Key() {
		t.Fatal("the clone must share the Runner's model Key")
	}
	for _, spec := range []Spec{clone, {Workload: w, Scheme: SchemeTwoBit, Entries: 2 * r.Model.PredictorEntries}} {
		before := r.TraceDrains()
		for i := 0; i < 2; i++ {
			if _, err := r.RunSpec(ctx, spec); err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunSpecs(ctx, []Spec{spec}); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.TraceDrains() - before; got != 4 {
			t.Errorf("two RunSpec and two RunSpecs calls of a non-default cell cost %d drains, want 4", got)
		}
		if len(r.stats) != 0 {
			t.Fatalf("a non-default cell was stored: %d entries", len(r.stats))
		}
	}
	for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
		for i := 0; i < 2; i++ {
			if _, err := r.RunSpec(context.Background(), Spec{Workload: w, Scheme: s}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The base program holds 2-bit and perfect Stats, the optimized one
	// 2-bit only.
	if len(r.stats) != 3 || len(r.stats) > 2*len(r.programs) {
		t.Errorf("cache holds %d Stats over %d programs, want 3 over 2", len(r.stats), len(r.programs))
	}
}

// cancelInRun is a context that cancels itself once a timing run has
// begun: the pipeline reads Done when it starts, and from then on Done
// is closed and Err reports Canceled. Every check before the run passes,
// so the cancellation lands inside the run whatever the host's speed.
type cancelInRun struct {
	context.Context
	started atomic.Bool
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *cancelInRun) Done() <-chan struct{} {
	c.started.Store(true)
	return closedDone
}

func (c *cancelInRun) Err() error {
	if c.started.Load() {
		return context.Canceled
	}
	return nil
}

// TestStatsCacheCancellation: a cell cancelled inside its timing run
// stores nothing, so the next call drains again and matches the golden
// Stats — in a one-cell call, whose drain is one Pipeline.Run, and in a
// two-cell call, whose drain the lane scheduler runs.
func TestStatsCacheCancellation(t *testing.T) {
	w := Grep()
	want := goldenCell(t, w.Name, SchemeTwoBit)
	for name, specs := range map[string][]Spec{
		"one cell":  {{Workload: w, Scheme: SchemeTwoBit}},
		"two cells": {{Workload: w, Scheme: SchemeTwoBit}, {Workload: w, Scheme: SchemePerfect}},
	} {
		r := NewRunner()
		ctx := &cancelInRun{Context: context.Background()}
		if _, err := r.RunSpecs(ctx, specs); !errors.Is(err, context.Canceled) || !ctx.started.Load() {
			t.Fatalf("%s: cancelled run = %v (timing run started: %v), want context.Canceled from inside the run", name, err, ctx.started.Load())
		}
		if len(r.stats) != 0 || r.TraceDrains() != 0 {
			t.Fatalf("%s: cancelled run left %d Stats and %d drains", name, len(r.stats), r.TraceDrains())
		}
		res, err := r.RunSpecs(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if r.TraceDrains() != 1 {
			t.Errorf("%s: the call after a cancelled one cost %d drains, want 1", name, r.TraceDrains())
		}
		if got := mustJSON(t, res[0].Stats); !bytes.Equal(got, want) {
			t.Errorf("%s: Stats after a cancelled run differ from golden\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestStatsCacheFollowsModelEdits: the cache is keyed by Model.Key, so
// editing the Runner's model in place between two runs of one cell
// gives the edited model's Stats, not the stale entry.
func TestStatsCacheFollowsModelEdits(t *testing.T) {
	w := Grep()
	r := NewRunner()
	before, err := r.RunSpec(context.Background(), Spec{Workload: w, Scheme: SchemeTwoBit})
	if err != nil {
		t.Fatal(err)
	}
	r.Model.MispredictPenalty += 4
	after, err := r.RunSpec(context.Background(), Spec{Workload: w, Scheme: SchemeTwoBit})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRunner()
	fresh.Model.MispredictPenalty = r.Model.MispredictPenalty
	want, err := fresh.RunSpec(context.Background(), Spec{Workload: w, Scheme: SchemeTwoBit})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before.Stats, want.Stats) {
		t.Fatal("the edit does not change the Stats; the test needs one that does")
	}
	if !reflect.DeepEqual(after.Stats, want.Stats) {
		t.Errorf("after an in-place model edit Run gave %d cycles, want the edited model's %d", after.Stats.Cycles, want.Stats.Cycles)
	}
}

// TestStatsCacheSharedAcrossPaths: every entry point is a RunSpecs
// call, and a cell one call stores is served to the next whatever the
// calls' shapes: a two-cell call's drain stores both of its lanes for
// later one-cell RunSpec calls, and a one-cell call's lane spares a
// later two-cell call that lane.
func TestStatsCacheSharedAcrossPaths(t *testing.T) {
	ctx := context.Background()
	w := Grep()
	pair := []Spec{{Workload: w, Scheme: SchemeTwoBit}, {Workload: w, Scheme: SchemePerfect}}

	r := NewRunner()
	both, err := r.RunSpecs(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range pair {
		one, err := r.RunSpec(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one.Stats, both[i].Stats) {
			t.Errorf("%s: cached Stats differ from the simulated ones", spec.Scheme)
		}
	}
	if d, l := r.TraceDrains(), r.SimLanes(); d != 1 || l != 2 {
		t.Errorf("two-cell call then two one-cell calls: %d drains, %d lanes; want 1 and 2 (both lanes stored)", d, l)
	}

	r = NewRunner()
	first, err := r.RunSpec(ctx, pair[1])
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.RunSpecs(ctx, pair)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[1].Stats, first.Stats) || !reflect.DeepEqual(again[0].Stats, both[0].Stats) {
		t.Error("the two-cell call's Stats differ from the one-cell and the fresh ones")
	}
	if d, l := r.TraceDrains(), r.SimLanes(); d != 2 || l != 2 {
		t.Errorf("one-cell call then a two-cell call: %d drains, %d lanes; want 2 and 2 (the stored lane not re-run)", d, l)
	}
}

// TestIndexBoundOncePerTrace: the branch-index span a lane is sized by
// is computed once per trace and Runner, however many one-cell calls
// need it. Each call needs it before its timing run, so the calls cancel
// their runs as they start (cancelInRun): no Stats are stored, and every
// call builds a lane.
func TestIndexBoundOncePerTrace(t *testing.T) {
	orig := indexBound
	defer func() { indexBound = orig }()
	calls := map[uint64]int{}
	indexBound = func(p *prog.Program) int {
		calls[p.Fingerprint()]++
		return orig(p)
	}
	r := NewRunner()
	w := Grep()
	for i := 0; i < 2; i++ {
		for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
			ctx := &cancelInRun{Context: context.Background()}
			if _, err := r.RunSpec(ctx, Spec{Workload: w, Scheme: s}); !errors.Is(err, context.Canceled) || !ctx.started.Load() {
				t.Fatalf("%s call %d = %v (timing run started: %v), want context.Canceled from inside the run", s, i, err, ctx.started.Load())
			}
		}
	}
	if len(calls) != 2 {
		t.Errorf("IndexBound ran on %d programs, want 2 (the base and the Proposed rewrite)", len(calls))
	}
	for fp, n := range calls {
		if n != 1 {
			t.Errorf("IndexBound ran %d times on program %016x, want once", n, fp)
		}
	}
}
