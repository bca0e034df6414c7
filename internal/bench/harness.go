package bench

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
)

// Scheme is one of the paper's three evaluated configurations (§6).
type Scheme int

const (
	// SchemeTwoBit: the original program on the R10000's 2-bit
	// prediction — the paper's column 1 / baseline.
	SchemeTwoBit Scheme = iota
	// SchemeProposed: the combined approach (Fig. 6 optimizer) "in
	// addition to 2-bit prediction" — column 2.
	SchemeProposed
	// SchemePerfect: the original program under perfect branch
	// prediction — column 3, the theoretical bound.
	SchemePerfect
)

// String names the scheme as in the tables' footnotes.
func (s Scheme) String() string {
	switch s {
	case SchemeTwoBit:
		return "2-bitBP"
	case SchemeProposed:
		return "Proposed"
	}
	return "PerfectBP"
}

// Result is one (workload, scheme) simulation.
type Result struct {
	Workload string
	Scheme   Scheme
	Stats    pipeline.Stats
	// Profile of the original program (the feedback run); identical
	// across schemes of one workload.
	Profile *profile.Profile
	// Report is the optimizer's decision log (SchemeProposed only).
	Report *core.Report
}

// Runner caches the experiment so repeated work runs once. Four caches
// cooperate:
//
//   - profiles, keyed by workload name: the feedback run (the paper's
//     instrumented profiling pass), one per workload;
//   - images, keyed by workload name like profiles: the workload's input,
//     Init run once into an empty memory and frozen as an interp.Image.
//     Every architectural run of the workload — the profiling run, every
//     drain's machine and RunLeak's taint machine — starts from it
//     copy-on-write, so an input is generated and paged in once per
//     Runner, however many programs run over it;
//   - programs, keyed by (workload, program fingerprint): the predecoded
//     program, its predict.IndexBound (the branch-index span canonical
//     lanes are sized by, laneModel) and the idle interp.Machines that
//     have run it over the workload's image;
//   - stats, keyed by program, predictor shape and Model.Key: the Stats
//     of each timing simulation on the Runner's own model and predictor
//     size, so a cell whose optimizer rewrite reproduces an already
//     simulated program (an ablation row that leaves a kernel as the
//     table's Proposed cell has it) costs no timing run.
//
// Every drain runs its program live: the machine that executes it is
// the drain's pipeline.Source, so the program runs architecturally once
// per drain, however many lanes the drain feeds. A drain takes an idle
// machine of its program, reset, or builds one; a drain that completes
// returns its machine, and one that fails or is cancelled drops it, so
// no half-run machine is ever idle. The profiling run leaves its
// machine for the base program's drains. ArchRuns counts the machines
// built: a drain that reuses one adds none, so a predictor-entry
// ablation or table sweep rebuilds nothing, and a full three-scheme
// table builds 2 machines per workload (one per distinct program).
//
// Every timing simulation goes through RunSpecs: RunSpec is a one-cell
// call and the table helpers (RunAll, RunProposedOptsAll) one call
// each, so a table's 2-bitBP and PerfectBP cells of one workload share
// a drain.
//
// A Runner is safe for concurrent calls: cache entries are per-key
// sync.Onces or map slots behind a mutex, a machine serves one drain
// at a time, and every simulation builds its own predictor and
// pipeline.
type Runner struct {
	Model *machine.Model
	// PredictorEntries overrides the 2-bit table size (ablations);
	// 0 uses the model's.
	PredictorEntries int
	// Parallelism caps the lane-scheduler workers of RunSpecs — and so
	// of every entry point — and its profile prefetch; 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial path. A call never
	// starts more workers than it has lanes.
	Parallelism int

	mu       sync.Mutex
	profiles map[string]*cached[*profile.Profile]
	images   map[string]*cached[*interp.Image]
	programs map[programKey]*program
	stats    map[statsKey]pipeline.Stats
	archRuns atomic.Int64
	// traceDrains counts drains, each one run of a program's event
	// stream into timing lanes; simLanes counts the simulations those
	// drains fed: (1, numLanes) per drain.
	traceDrains atomic.Int64
	simLanes    atomic.Int64
	// skippedCycles/fastForwards aggregate the quiescence fast-forward
	// counters (pipeline.SkipStats) of every simulation this Runner has
	// fed, and simCycles the simulated cycles (Stats.Cycles) they were
	// skipped from.
	skippedCycles atomic.Int64
	fastForwards  atomic.Int64
	simCycles     atomic.Int64
}

// cached is one lazily built cache value: the first caller builds it,
// concurrent callers wait for that build, and every later caller gets
// its value or its error.
type cached[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the value, building it with build on first use.
func (c *cached[T]) get(build func() (T, error)) (T, error) {
	c.once.Do(func() { c.v, c.err = build() })
	return c.v, c.err
}

// entry returns m's entry for k, adding an empty one; r.mu guards the
// Runner's cache maps, and the entry itself its build.
func entry[K comparable, E any](r *Runner, m map[K]*E, k K) *E {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := m[k]
	if e == nil {
		e = new(E)
		m[k] = e
	}
	return e
}

// programKey identifies one architectural execution: the workload
// names the input image (Init), the fingerprint names the exact
// program.
type programKey struct {
	workload string
	fp       uint64
}

// program is one program-cache entry.
type program struct {
	code cached[*interp.Code]

	boundOnce sync.Once
	bound     int // the program's predict.IndexBound (Runner.boundOf)

	idle []*interp.Machine // halted machines that ran it; guarded by Runner.mu
}

// statsKey identifies one timing simulation on the Runner's own model:
// the program it runs, its predictor shape (perfect, or the raw table
// size, not a lane's canonical one) and the model's Key, so an in-place
// edit of Runner.Model misses instead of hitting a stale entry.
type statsKey struct {
	programKey
	perfect bool
	entries int // 0 for perfect cells
	model   string
}

// NewRunner returns a Runner on the R10000 model.
func NewRunner() *Runner {
	return &Runner{
		Model:    machine.R10000(),
		profiles: map[string]*cached[*profile.Profile]{},
		images:   map[string]*cached[*interp.Image]{},
		programs: map[programKey]*program{},
		stats:    map[statsKey]pipeline.Stats{},
	}
}

func (r *Runner) entries() int {
	if r.PredictorEntries > 0 {
		return r.PredictorEntries
	}
	return r.Model.PredictorEntries
}

// ArchRuns returns how many machines this Runner has built to run
// programs architecturally — the quantity the program cache exists to
// minimize. A drain that reuses an idle machine adds none: a full
// three-scheme table is 2 per workload, and a predictor sweep adds
// none. Drains of one program that run at once each need their own
// machine, so concurrent calls may build more.
func (r *Runner) ArchRuns() int64 { return r.archRuns.Load() }

// newImage is interp.NewImage, a variable so tests can count image
// builds.
var newImage = interp.NewImage

// imageOf returns (building if needed) the workload's input image. A
// failing Init fails every run of the workload with its error, as a
// failing profile does.
func (r *Runner) imageOf(w Workload) (*interp.Image, error) {
	return entry(r, r.images, w.Name).get(func() (*interp.Image, error) {
		return newImage(interp.Options{}, w.Init)
	})
}

// codeOf returns (predecoding if needed) the entry's program: p, or
// w's base program when p is nil, built only if it must be predecoded.
func (r *Runner) codeOf(e *program, w Workload, p *prog.Program) (*interp.Code, error) {
	return e.code.get(func() (*interp.Code, error) {
		if p == nil {
			p = w.Build()
		}
		code, err := interp.Predecode(p, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: predecoding %s: %w", w.Name, err)
		}
		return code, nil
	})
}

// machine returns an idle machine of the entry's program, reset, or a
// new one over w's input image. The caller owns it until it hands it
// back with release.
func (r *Runner) machine(e *program, code *interp.Code, w Workload) (*interp.Machine, error) {
	r.mu.Lock()
	if n := len(e.idle); n > 0 {
		m := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		r.mu.Unlock()
		m.Reset()
		return m, nil
	}
	r.mu.Unlock()
	img, err := r.imageOf(w)
	if err != nil {
		return nil, err
	}
	r.archRuns.Add(1)
	return code.NewMachine(interp.Options{Image: img}), nil
}

// release makes m, which has run e's program to its end, idle for the
// next drain of it. A machine stopped part-way is never released.
func (r *Runner) release(e *program, m *interp.Machine) {
	r.mu.Lock()
	e.idle = append(e.idle, m)
	r.mu.Unlock()
}

// ProfileOf returns (building if needed) the workload's feedback
// profile — the paper's instrumented run. The machine that runs it is
// left idle for the base program's drains.
func (r *Runner) ProfileOf(w Workload) (*profile.Profile, error) {
	return entry(r, r.profiles, w.Name).get(func() (*profile.Profile, error) { return r.collectProfile(w) })
}

func (r *Runner) collectProfile(w Workload) (*profile.Profile, error) {
	e := entry(r, r.programs, programKey{w.Name, w.Fingerprint()})
	code, err := r.codeOf(e, w, nil)
	if err != nil {
		return nil, err
	}
	m, err := r.machine(e, code, w)
	if err != nil {
		return nil, fmt.Errorf("bench: profiling %s: %w", w.Name, err)
	}
	prof := profile.NewProfile()
	res, err := m.Run(func(ev *interp.Event) {
		if ev.Branch {
			prof.Record(ev.BranchSite, ev.Taken)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("bench: profiling %s: %w", w.Name, err)
	}
	r.release(e, m)
	prof.DynInstrs = res.DynInstrs
	prof.Annulled = res.Annulled
	return prof, nil
}

// prefetchProfiles builds the feedback profile of every distinct
// workload among specs on up to Parallelism goroutines, so a call
// spanning several workloads profiles them in parallel before RunSpecs
// resolves its cells one by one. Errors stay in the profile cache,
// where that resolution finds them. With one workload or one worker
// there is nothing to overlap.
func (r *Runner) prefetchProfiles(specs []Spec) {
	var ws []Workload
	for _, spec := range specs {
		if !slices.ContainsFunc(ws, func(w Workload) bool { return w.Name == spec.Workload.Name }) {
			ws = append(ws, spec.Workload)
		}
	}
	workers := r.workers(len(ws))
	if workers < 2 {
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ws); i = int(next.Add(1)) - 1 {
				r.ProfileOf(ws[i])
			}
		}()
	}
	wg.Wait()
}

// Spec fully describes one simulation: the (workload, scheme) pair
// plus per-call timing and optimizer configuration. RunAll leaves the
// per-call fields unset, and callers that serve heterogeneous requests
// from one shared Runner (internal/serve) set them: unlike the
// PredictorEntries field, a Spec does not mutate Runner state, so
// concurrent Specs with different predictor sizes still share the
// profile and program caches.
type Spec struct {
	Workload Workload
	Scheme   Scheme
	// Entries overrides the predictor table size for this call only;
	// 0 uses the Model's (when set) or the Runner's configuration.
	Entries int
	// Opt, when non-nil, replaces the workload's optimizer options.
	// Only meaningful for SchemeProposed.
	Opt *core.Options
	// Model, when non-nil, replaces the Runner's machine model for this
	// cell: timing simulation, optimizer legality and predictor family
	// (Model.Predictor; SchemePerfect still forces the oracle) all come
	// from it. Callers must pass Validate-clean models built through
	// Clone — a sweep cell must never alias the Runner's model. Cells
	// with different models still share the profile and program caches:
	// the architectural run is model-independent.
	Model *machine.Model
}

// specModel resolves the model a spec simulates on.
func (r *Runner) specModel(spec Spec) *machine.Model {
	if spec.Model != nil {
		return spec.Model
	}
	return r.Model
}

// specEntries resolves a spec's predictor table size against its model.
func (r *Runner) specEntries(spec Spec, m *machine.Model) int {
	if spec.Entries > 0 {
		return spec.Entries
	}
	if spec.Model != nil {
		return m.PredictorEntries
	}
	return r.entries()
}

// buildPredictor constructs the predictor a (model, scheme, entries)
// cell simulates with. SchemePerfect forces the oracle regardless of
// family; otherwise the model's Predictor decides — the zero value
// PredTwoBit keeps the paper's scheme, so default-model cells are
// byte-identical to the pre-model-field runner (pinned by the golden
// tests).
func buildPredictor(m *machine.Model, s Scheme, entries int) predict.Predictor {
	if s == SchemePerfect {
		return predict.NewPerfect()
	}
	switch m.Predictor {
	case machine.PredGShare:
		return predict.NewGShare(entries, uint(m.HistoryBits))
	case machine.PredPerfect:
		return predict.NewPerfect()
	}
	return predict.NewTwoBit(entries)
}

// statsKey returns the Stats-cache key of a cell running pk with
// predictor size entries, or nil for a cell the cache never holds: one
// on a per-spec model, or a predicted (not perfect) cell at a size
// other than the Runner's. Only the Runner's own configuration is
// stored, so the cache holds at most two Stats (predicted and perfect)
// per program for a given Model and size, however many models or sizes
// a sweep explores.
func (r *Runner) statsKey(spec Spec, pk programKey, entries int) *statsKey {
	perfect := spec.Scheme == SchemePerfect
	if spec.Model != nil || !perfect && entries != r.entries() {
		return nil
	}
	k := &statsKey{programKey: pk, perfect: perfect, model: r.Model.Key()}
	if !perfect {
		k.entries = entries
	}
	return k
}

// cachedStats looks k up in the Stats cache; a nil k always misses.
func (r *Runner) cachedStats(k *statsKey) (pipeline.Stats, bool) {
	if k == nil {
		return pipeline.Stats{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.stats[*k]
	return s, ok
}

// storeStats records the Stats of a completed simulation under k; a
// nil k stores nothing. Callers store only after a successful run, so
// a cancelled or failed simulation never leaves an entry.
func (r *Runner) storeStats(k *statsKey, s pipeline.Stats) {
	if k != nil {
		r.mu.Lock()
		r.stats[*k] = s
		r.mu.Unlock()
	}
}

// RunSpec simulates one Spec with cancellation: a one-cell RunSpecs
// call, so it shares every cache and the one timing path.
func (r *Runner) RunSpec(ctx context.Context, spec Spec) (Result, error) {
	res, err := r.RunSpecs(ctx, []Spec{spec})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunAll simulates every workload under every scheme and returns the
// results in table order: one RunSpecs call, so each workload's
// 2-bitBP and PerfectBP cells share one drain and the lanes of every
// drain spread over Parallelism workers.
func (r *Runner) RunAll() ([]Result, error) {
	var specs []Spec
	for _, w := range All() {
		for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
			specs = append(specs, Spec{Workload: w, Scheme: s})
		}
	}
	return r.RunSpecs(context.Background(), specs)
}

// RunProposedOptsAll simulates the proposed scheme with explicit
// optimizer options for every workload, in registry order, as one
// RunSpecs call — one ablation row (the title's "individual/combined
// effects": disable one arm at a time).
func (r *Runner) RunProposedOptsAll(opts core.Options) ([]Result, error) {
	var specs []Spec
	for _, w := range All() {
		specs = append(specs, Spec{Workload: w, Scheme: SchemeProposed, Opt: &opts})
	}
	return r.RunSpecs(context.Background(), specs)
}

// workers returns how many goroutines n independent jobs get:
// Parallelism (GOMAXPROCS when 0), but never more than n.
func (r *Runner) workers(n int) int {
	w := r.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}
