package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
)

// goldenSpecs is the 12-cell matrix in golden_stats.json order
// (workload-major, schemes TwoBit/Proposed/Perfect).
func goldenSpecs() []Spec {
	var specs []Spec
	for _, w := range All() {
		for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
			specs = append(specs, Spec{Workload: w, Scheme: s})
		}
	}
	return specs
}

// TestGoldenStatsBatched pins one RunSpecs call of the 12 table cells,
// each workload's 2-bitBP and PerfectBP lanes sharing a drain, to
// testdata/golden_stats.json, which per-cell single-lane runs recorded;
// TestParallelRunAllMatchesSerial ties one-cell calls to the same Stats.
func TestGoldenStatsBatched(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_stats.json"))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenStats -update first): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	specs := goldenSpecs()
	if len(want) != len(specs) {
		t.Fatalf("golden file has %d cells, sweep has %d", len(want), len(specs))
	}
	results, err := NewRunner().RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Workload != want[i].Workload || res.Scheme.String() != want[i].Scheme {
			t.Fatalf("cell %d is %s/%s, golden has %s/%s",
				i, res.Workload, res.Scheme, want[i].Workload, want[i].Scheme)
		}
		got, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		var wantCompact bytes.Buffer
		if err := json.Compact(&wantCompact, want[i].Stats); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantCompact.Bytes()) {
			t.Errorf("%s/%s: batched stats diverged from golden\n got: %s\nwant: %s",
				res.Workload, res.Scheme, got, wantCompact.Bytes())
		}
	}
}

// sweepSpecs24 is the canonical two-size predictor sweep from
// ISSUE 6's acceptance criteria: 4 workloads x 3 schemes x 2 table
// sizes.
func sweepSpecs24() []Spec {
	var specs []Spec
	for _, entries := range []int{512, 1024} {
		for _, w := range All() {
			for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
				specs = append(specs, Spec{Workload: w, Scheme: s, Entries: entries})
			}
		}
	}
	return specs
}

// TestRunSpecsDrainAccounting pins the batching economics of the
// 24-cell sweep: two trace drains per workload (original program +
// optimized program), lanes deduplicated across table sizes the
// program cannot tell apart, and no extra architectural runs beyond
// the 8 machines (one per program).
func TestRunSpecsDrainAccounting(t *testing.T) {
	r := NewRunner()
	ctx := context.Background()
	specs := sweepSpecs24()
	results, err := r.RunSpecs(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 24 {
		t.Fatalf("got %d results, want 24", len(results))
	}
	// 4 workloads x {original trace, optimized trace}.
	if got := r.TraceDrains(); got != 8 {
		t.Errorf("TraceDrains = %d, want 8", got)
	}
	// Per workload: TwoBit, Proposed and Perfect, one lane each. Every
	// conditional branch of every kernel, original or optimized, sits
	// below pc/4 = 64, so 512 and 1024 entries are one machine to it
	// (predict.CanonicalEntries), and Perfect reads no table at all.
	if got := r.SimLanes(); got != 12 {
		t.Errorf("SimLanes = %d, want 12", got)
	}
	if got := r.ArchRuns(); got != 8 {
		t.Errorf("ArchRuns = %d, want 8", got)
	}

	// The two Perfect cells of each workload shared one lane — their
	// Stats must be identical objects, and every non-empty cell must
	// have run (Cycles > 0).
	byCell := map[[3]interface{}]Result{}
	for i, res := range results {
		spec := specs[i]
		byCell[[3]interface{}{spec.Workload.Name, spec.Scheme, spec.Entries}] = res
		if res.Stats.Cycles <= 0 {
			t.Errorf("cell %d (%s/%s@%d) has Cycles=%d", i, res.Workload, res.Scheme, spec.Entries, res.Stats.Cycles)
		}
	}
	for _, w := range All() {
		a := byCell[[3]interface{}{w.Name, SchemePerfect, 512}]
		b := byCell[[3]interface{}{w.Name, SchemePerfect, 1024}]
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("%s: Perfect lanes at 512/1024 diverged despite sharing a lane", w.Name)
		}
	}

	// Spot-check a non-golden cell (1024-entry table) against the
	// single-lane path on the same warmed Runner.
	w := All()[0]
	single, err := r.RunSpec(ctx, Spec{Workload: w, Scheme: SchemeTwoBit, Entries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	batched := byCell[[3]interface{}{w.Name, SchemeTwoBit, 1024}]
	if !reflect.DeepEqual(single.Stats, batched.Stats) {
		t.Errorf("%s/2-bitBP@1024: batched stats diverged from RunSpec\n got: %+v\nwant: %+v",
			w.Name, batched.Stats, single.Stats)
	}
	// And that RunSpec billed one more drain feeding exactly one lane.
	if got := r.TraceDrains(); got != 9 {
		t.Errorf("TraceDrains after RunSpec = %d, want 9", got)
	}
	if got := r.SimLanes(); got != 13 {
		t.Errorf("SimLanes after RunSpec = %d, want 13", got)
	}
}

// TestGoldenStatsSpecModel pins the new Spec.Model path: a spec
// carrying an explicit clone of the default R10000 model must produce
// Stats byte-identical to the golden file recorded before the model
// field existed — both through RunSpec and through the batched RunSpecs.
func TestGoldenStatsSpecModel(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_stats.json"))
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenStats -update first): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	specs := goldenSpecs()
	for i := range specs {
		specs[i].Model = machine.R10000()
	}
	ctx := context.Background()
	check := func(label string, results []Result) {
		t.Helper()
		for i, res := range results {
			got, err := json.Marshal(res.Stats)
			if err != nil {
				t.Fatal(err)
			}
			var wantCompact bytes.Buffer
			if err := json.Compact(&wantCompact, want[i].Stats); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantCompact.Bytes()) {
				t.Errorf("%s %s/%s: explicit default model diverged from golden\n got: %s\nwant: %s",
					label, res.Workload, res.Scheme, got, wantCompact.Bytes())
			}
		}
	}

	batched, err := NewRunner().RunSpecs(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	check("batched", batched)

	if raceDetectorOn {
		// The single-RunSpec half re-runs the whole golden suite; under
		// -race that is minutes of redundant work (TestGoldenStats pins
		// the single path, and it is identical modulo the Model field).
		return
	}
	r := NewRunner()
	single := make([]Result, len(specs))
	for i, spec := range specs {
		if single[i], err = r.RunSpec(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	check("single", single)
}

// TestRunSpecsModelSweep drives a model grid through the batched path:
// cells varying fetch width, ROB depth, predictor family and throttle
// share trace drains (drains ≪ cells), duplicate model cells share a
// lane, and each batched cell is byte-identical to its single RunSpec.
func TestRunSpecsModelSweep(t *testing.T) {
	axes := []machine.Axis{
		{Name: "fetch_width", Values: []int{2, 4}},
		{Name: "active_list", Values: []int{16, 32}},
		{Name: "predictor", Values: []int{int(machine.PredTwoBit), int(machine.PredGShare)}},
		{Name: "throttle_width", Values: []int{0, 2}},
	}
	points, err := machine.Expand(machine.R10000(), axes)
	if err != nil {
		t.Fatal(err)
	}
	w := All()[0]
	specs := make([]Spec, 0, len(points)+1)
	for _, pt := range points {
		specs = append(specs, Spec{Workload: w, Scheme: SchemeTwoBit, Model: pt.Model})
	}
	// A duplicate of the first point must share its lane.
	specs = append(specs, Spec{Workload: w, Scheme: SchemeTwoBit, Model: points[0].Model.Clone()})

	r := NewRunner()
	ctx := context.Background()
	results, err := r.RunSpecs(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 17 {
		t.Fatalf("got %d results, want 17", len(results))
	}
	// One workload, one program, one geometry: a single drain feeds all
	// 16 distinct lanes (the 17th cell deduplicates).
	if got := r.TraceDrains(); got != 1 {
		t.Errorf("TraceDrains = %d, want 1 (cells batched by geometry)", got)
	}
	if got := r.SimLanes(); got != 16 {
		t.Errorf("SimLanes = %d, want 16 (duplicate model shares a lane)", got)
	}
	if !reflect.DeepEqual(results[0].Stats, results[16].Stats) {
		t.Error("duplicate-model cells diverged despite sharing a lane")
	}

	// Every batched cell must match its standalone RunSpec byte-for-byte.
	// Skipped under -race: 16 fresh single-lane drains are minutes of
	// detector-amplified work, and batched-vs-single equivalence is
	// already race-pinned by TestBatchMatchesSingle (make test-race).
	if raceDetectorOn {
		return
	}
	fresh := NewRunner()
	for i := 0; i < len(points); i++ {
		single, err := fresh.RunSpec(ctx, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i].Stats, single.Stats) {
			t.Errorf("point %d (%s): batched stats diverged from RunSpec", i, points[i].CoordLabel())
		}
	}
}

// TestRunSpecsGeometrySplit: cells whose icache geometry differs land
// in different drains, so the shared icache bits stay sound per group.
func TestRunSpecsGeometrySplit(t *testing.T) {
	small := machine.R10000()
	small.ICacheBytes = 8 << 10
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	w := All()[0]
	specs := []Spec{
		{Workload: w, Scheme: SchemeTwoBit, Model: machine.R10000()},
		{Workload: w, Scheme: SchemePerfect, Model: machine.R10000()},
		{Workload: w, Scheme: SchemeTwoBit, Model: small},
	}
	r := NewRunner()
	results, err := r.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TraceDrains(); got != 2 {
		t.Errorf("TraceDrains = %d, want 2 (one per icache geometry)", got)
	}
	if got := r.SimLanes(); got != 3 {
		t.Errorf("SimLanes = %d, want 3", got)
	}
	// The smaller icache can only miss more.
	if results[2].Stats.ICacheMisses < results[0].Stats.ICacheMisses {
		t.Errorf("8KB icache misses (%d) below 32KB (%d)",
			results[2].Stats.ICacheMisses, results[0].Stats.ICacheMisses)
	}
}

// TestRunSpecsSubgroupSplit: a grid bigger than pipeline.MaxBatchLanes splits
// into multiple drains of the same trace, keeping drains ≪ cells while
// letting the sweep fan out across cores.
func TestRunSpecsSubgroupSplit(t *testing.T) {
	if raceDetectorOn {
		// 40 full timing lanes is ~2 minutes under the detector, and the
		// parallel-drain interleavings it would exercise are already
		// covered at smaller scale by TestRunSpecsModelSweep and
		// TestRunSpecsGeometrySplit.
		t.Skip("subgroup split needs >pipeline.MaxBatchLanes lanes; too slow under -race")
	}
	w := All()[0]
	var specs []Spec
	n := pipeline.MaxBatchLanes + 8
	for i := 0; i < n; i++ {
		m := machine.R10000()
		m.PredictorEntries = 16 << (i % 10) // vary the lane key
		m.ActiveList = 16 + 4*i             // ...and the model so no two dedup
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, Spec{Workload: w, Scheme: SchemeTwoBit, Model: m})
	}
	r := NewRunner()
	results, err := r.RunSpecs(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	if got := r.TraceDrains(); got != 2 {
		t.Errorf("TraceDrains = %d, want 2 (%d lanes split at %d per drain)", got, n, pipeline.MaxBatchLanes)
	}
	if got := r.SimLanes(); got != int64(n) {
		t.Errorf("SimLanes = %d, want %d", got, n)
	}
}

// TestRunSpecsEmpty: a zero-length sweep is a no-op, not an error.
func TestRunSpecsEmpty(t *testing.T) {
	results, err := NewRunner().RunSpecs(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("got %d results, want 0", len(results))
	}
}

// TestRunSpecsUnknownScheme mirrors RunSpec's validation.
func TestRunSpecsUnknownScheme(t *testing.T) {
	_, err := NewRunner().RunSpecs(context.Background(), []Spec{{Workload: All()[0], Scheme: Scheme(99)}})
	if err == nil {
		t.Fatal("want error for unknown scheme")
	}
}

// rawStats is the reference a canonical lane must match: spec's cell
// simulated alone on its own model, predictor family and table size —
// not on the canonical lane machine RunSpecs builds (laneModel) — by
// one Pipeline fed by a fresh machine of the cell's program, built and
// initialized here rather than taken from r's program cache. r supplies
// the profile a Proposed cell's optimizer reads.
func rawStats(t *testing.T, r *Runner, spec Spec) pipeline.Stats {
	t.Helper()
	w := spec.Workload
	m := r.specModel(spec)
	p := w.Build()
	if spec.Scheme == SchemeProposed {
		prof, err := r.ProfileOf(w)
		if err != nil {
			t.Fatal(err)
		}
		opts := w.Opt
		if spec.Opt != nil {
			opts = *spec.Opt
		}
		if _, err := core.Optimize(p, prof, m, opts); err != nil {
			t.Fatal(err)
		}
	}
	code, err := interp.Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	mach := code.NewMachine(interp.Options{})
	if err := w.Init(mach); err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.Config{Model: m, Predictor: buildPredictor(m, spec.Scheme, r.specEntries(spec, m))})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipe.Run(mach)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunSpecsCanonicalLanes: cells whose machines grep cannot tell
// apart share a lane, and every cell still equals its cell simulated
// alone on its own, uncanonicalized machine (rawStats). grep's
// conditional branches sit below pc/4 = 23, so a 2-bit
// table spans 32 entries, gshare with no history 32 and gshare with 8
// history bits 256. Per machine variant the 14 cells fold into 10
// lanes: 2-bit {8, 16, 32←23,32,128}, gshare/0 {16, 32←32,128},
// gshare/8 {16, 64, 128, 256←256,1024} and one perfect lane. Four
// variants make 40 lanes, more than one drain holds; the cells are
// ordered so that no lane's key recurs after its subgroup is full,
// which makes SimLanes the number of distinct canonical machines.
func TestRunSpecsCanonicalLanes(t *testing.T) {
	if raceDetectorOn {
		t.Skip("58 single-lane reference runs; lane isolation is race-pinned by TestBatchMatchesSingle")
	}
	w := Grep()
	runnerCell := Spec{Workload: w, Scheme: SchemeTwoBit}
	entriesCell := Spec{Workload: w, Scheme: SchemeTwoBit, Entries: 1024}
	var specs []Spec
	for vi, activeList := range []int{32, 16, 48, 64} {
		base := machine.R10000()
		base.ActiveList = activeList
		cell := func(s Scheme, family machine.PredKind, hist, entries int) Spec {
			m := base.Clone()
			m.Predictor, m.HistoryBits, m.PredictorEntries = family, hist, entries
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			return Spec{Workload: w, Scheme: s, Model: m}
		}
		for _, n := range []int{8, 16, 23, 32, 128} {
			specs = append(specs, cell(SchemeTwoBit, machine.PredTwoBit, 8, n))
		}
		for _, n := range []int{16, 32, 128} {
			specs = append(specs, cell(SchemeTwoBit, machine.PredGShare, 0, n))
		}
		for _, n := range []int{16, 64, 128, 256, 1024} {
			specs = append(specs, cell(SchemeTwoBit, machine.PredGShare, 8, n))
		}
		specs = append(specs, cell(SchemePerfect, machine.PredGShare, 8, 64))
		if vi == 0 {
			// The first variant is the Runner's own model: these two join
			// the 2-bit lane its Model cells opened.
			specs = append(specs, entriesCell, runnerCell)
		}
	}

	r := NewRunner()
	ctx := context.Background()
	results, err := r.RunSpecs(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SimLanes(); got != 40 {
		t.Errorf("SimLanes = %d, want 40 canonical machines", got)
	}
	if got := r.TraceDrains(); got != 2 {
		t.Errorf("TraceDrains = %d, want 2 (40 lanes split at %d)", got, pipeline.MaxBatchLanes)
	}
	fresh := NewRunner()
	for i, spec := range specs {
		if !reflect.DeepEqual(results[i].Stats, rawStats(t, fresh, spec)) {
			t.Errorf("cell %d (model %v, entries %d, scheme %s): lane Stats diverged from the cell's own machine",
				i, spec.Model != nil, spec.Entries, spec.Scheme)
		}
	}

	// The Runner-model cell's lane is stored in the Stats cache, whichever
	// member spec opened it: a Model cell above, the Entries cell or the
	// Runner cell itself below. A stored cell costs RunSpec no drain.
	stored := func(r *Runner) bool {
		drains := r.TraceDrains()
		if _, err := r.RunSpec(ctx, runnerCell); err != nil {
			t.Fatal(err)
		}
		return r.TraceDrains() == drains
	}
	if !stored(r) {
		t.Error("Runner-model cell not in the Stats cache after a Model cell opened its lane")
	}
	for _, order := range [][]Spec{{entriesCell, runnerCell}, {runnerCell, entriesCell}} {
		r := NewRunner()
		if _, err := r.RunSpecs(ctx, order); err != nil {
			t.Fatal(err)
		}
		if got := r.SimLanes(); got != 1 {
			t.Errorf("SimLanes = %d, want 1 (512 and 1024 entries are one machine to grep)", got)
		}
		if !stored(r) {
			t.Errorf("Runner-model cell not in the Stats cache when the cell with Entries=%d came first", order[0].Entries)
		}
	}
}

// TestOneCellRunSpecAllocation: a warm one-cell call on a per-spec model,
// which the Stats cache never holds, so every call simulates, allocates
// at most 6 KB: its machine comes idle from the program cache, and its
// lane and decode window from the free lists the previous call's drain
// released them to. A lane built anew costs ~30 KB.
func TestOneCellRunSpecAllocation(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector allocates on its own account")
	}
	r := NewRunner()
	spec := Spec{Workload: Grep(), Scheme: SchemeTwoBit, Model: r.Model.Clone()}
	ctx := context.Background()
	if _, err := r.RunSpec(ctx, spec); err != nil {
		t.Fatal(err)
	}
	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := r.RunSpec(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if r.TraceDrains() != calls+1 {
		t.Fatalf("%d drains over %d calls, want one per call", r.TraceDrains(), calls+1)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	if per > 6<<10 {
		t.Errorf("a warm one-cell call allocated %d bytes, want ≤ 6 KB", per)
	}
	t.Logf("%d bytes per warm one-cell call", per)
}
