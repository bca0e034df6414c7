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

// runSpecsOne runs one cell through RunSpecs, the batched path.
func runSpecsOne(r *Runner, ctx context.Context, spec Spec) (Result, error) {
	res, err := r.RunSpecs(ctx, []Spec{spec})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// cellPath runs one cell on a Runner: (*Runner).RunSpec or runSpecsOne.
type cellPath func(*Runner, context.Context, Spec) (Result, error)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunMatchesRunSpecOnGShare: Run and RunProposedOpts are RunSpec
// cells, so they take the predictor family from the Runner's model like
// every other path. Each side runs on its own Runner, so the Stats
// cache cannot make them agree.
func TestRunMatchesRunSpecOnGShare(t *testing.T) {
	gshare := func() *Runner {
		r := NewRunner()
		r.Model.Predictor = machine.PredGShare
		r.Model.HistoryBits = 8
		return r
	}
	w := Grep()
	ctx := context.Background()
	run, err := gshare().Run(w, SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := gshare().RunSpec(ctx, Spec{Workload: w, Scheme: SchemeTwoBit})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run.Stats, spec.Stats) {
		t.Errorf("Run = %d cycles, RunSpec = %d cycles on a gshare model", run.Stats.Cycles, spec.Stats.Cycles)
	}
	opt, err := gshare().RunProposedOpts(w, w.Opt)
	if err != nil {
		t.Fatal(err)
	}
	spec, err = gshare().RunSpec(ctx, Spec{Workload: w, Scheme: SchemeProposed, Opt: &w.Opt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opt.Stats, spec.Stats) {
		t.Errorf("RunProposedOpts = %d cycles, RunSpec = %d cycles on a gshare model", opt.Stats.Cycles, spec.Stats.Cycles)
	}
}

// TestStatsCacheDedup: one Runner evaluates what sgbench prints — the
// 12 table cells, then the seven ablation rows — and simulates each
// distinct (trace, timing configuration) once: 40 cells cost 22 timing
// runs over 18 captures, and every cell's Stats equal the same cell on
// a fresh Runner.
func TestStatsCacheDedup(t *testing.T) {
	rows, wantDrains, wantRuns := ablationRows, int64(22), int64(18)
	if raceDetectorOn {
		// Keep the "combined" row: it rebuilds the table's Proposed
		// programs, so all four of its cells come from the cache.
		rows, wantDrains, wantRuns = ablationRows[:1], 12, 8
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
	if got := r.ArchRuns(); got != wantRuns {
		t.Errorf("ArchRuns = %d, want %d", got, wantRuns)
	}
}

// TestStatsCacheBound: a cell off the Runner's own configuration is
// never stored — a per-spec Model, even a Clone with the Runner's Key,
// and a predictor size other than the Runner's each cost a drain every
// time, through RunSpec and RunSpecs alike — so the cache holds at most
// two Stats per trace.
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
			if _, err := r.Run(w, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The base trace holds 2-bit and perfect Stats, the optimized one
	// 2-bit only.
	if len(r.stats) != 3 || len(r.stats) > 2*len(r.traces) {
		t.Errorf("cache holds %d Stats over %d traces, want 3 over 2", len(r.stats), len(r.traces))
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
// Stats — through RunSpec and RunSpecs.
func TestStatsCacheCancellation(t *testing.T) {
	w := Grep()
	spec := Spec{Workload: w, Scheme: SchemeTwoBit}
	want := goldenCell(t, w.Name, SchemeTwoBit)
	for name, run := range map[string]cellPath{"RunSpec": (*Runner).RunSpec, "RunSpecs": runSpecsOne} {
		r := NewRunner()
		ctx := &cancelInRun{Context: context.Background()}
		if _, err := run(r, ctx, spec); !errors.Is(err, context.Canceled) || !ctx.started.Load() {
			t.Fatalf("%s: cancelled run = %v (timing run started: %v), want context.Canceled from inside the run", name, err, ctx.started.Load())
		}
		if len(r.stats) != 0 || r.TraceDrains() != 0 {
			t.Fatalf("%s: cancelled run left %d Stats and %d drains", name, len(r.stats), r.TraceDrains())
		}
		res, err := run(r, context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.TraceDrains() != 1 {
			t.Errorf("%s: the call after a cancelled one cost %d drains, want 1", name, r.TraceDrains())
		}
		if got := mustJSON(t, res.Stats); !bytes.Equal(got, want) {
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
	before, err := r.Run(w, SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	r.Model.MispredictPenalty += 4
	after, err := r.Run(w, SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRunner()
	fresh.Model.MispredictPenalty = r.Model.MispredictPenalty
	want, err := fresh.Run(w, SchemeTwoBit)
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

// TestStatsCacheSharedAcrossPaths: RunSpec and RunSpecs share one
// cache, so a default cell simulated by either is served to the other
// without a drain.
func TestStatsCacheSharedAcrossPaths(t *testing.T) {
	r := NewRunner()
	ctx := context.Background()
	w := Grep()
	for i, c := range []struct {
		s             Scheme
		first, second cellPath
	}{
		{SchemeTwoBit, (*Runner).RunSpec, runSpecsOne},
		{SchemePerfect, runSpecsOne, (*Runner).RunSpec},
	} {
		spec := Spec{Workload: w, Scheme: c.s}
		first, err := c.first(r, ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		second, err := c.second(r, ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.TraceDrains(); got != int64(i+1) {
			t.Errorf("%s: TraceDrains = %d, want %d (the second path must hit the cache)", c.s, got, i+1)
		}
		if !reflect.DeepEqual(first.Stats, second.Stats) {
			t.Errorf("%s: cached Stats differ from the simulated ones", c.s)
		}
	}
}
