package bench

import (
	"context"
	"fmt"

	"specguard/internal/core"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/prog"
)

// Batched sweep execution: RunSpecs groups heterogeneous Specs by the
// trace they replay and their I-cache geometry — the (workload, program
// fingerprint, icache bytes, line bytes) tuple — and runs each group as
// one pipeline.Batch, so a whole sweep costs one trace drain per
// distinct architectural execution and geometry instead of one per
// cell. Geometry is part of the key because the batch's shared
// precomputed icache bits are only sound for lanes whose cache shape
// matches (pipeline.Batch falls back to private caches otherwise, which
// is correct but forfeits the sharing); models may differ per lane in
// every other axis. Within a group, cells with identical timing
// configuration share a lane outright. Lane Stats are byte-identical to
// the single-lane RunSpec path (pinned by TestGoldenStatsBatched and
// the drain-accounting test).

// MaxBatchLanes caps the lanes folded into one drain. Lanes, not
// drains, are the unit of parallel work (pipeline.RunDrains), so the
// cap no longer buys fan-out: it bounds live lane state, since at most
// one drain per worker is live at once. Lane dedup applies within a
// drain.
const MaxBatchLanes = 32

// laneKey identifies a timing configuration within one trace group:
// predictor shape plus the full machine configuration (empty model key
// = the Runner's model).
type laneKey struct {
	perfect bool
	entries int    // 0 for perfect lanes
	model   string // machine.Model.Key() for per-spec models
}

// batchLane is one timing simulation shared by every spec index that
// maps to the same laneKey within a subgroup.
type batchLane struct {
	key      laneKey
	model    *machine.Model // nil = Runner's model
	pred     predict.Predictor
	specIdxs []int
	cache    *statsKey // where Done stores the lane's Stats; nil: not cached
}

// batchGroup is one trace drain: all lanes replaying the same
// (workload, program) architectural execution with one icache geometry.
type batchGroup struct {
	w     Workload
	p     *prog.Program // nil: w's base program (see Runner.traceFor)
	fp    uint64        // p's fingerprint (w's base program's when p is nil)
	work  int64         // estimated events × lanes, for admission order
	lanes []*batchLane
	byKey map[laneKey]*batchLane
}

// groupKey folds the trace identity with the icache geometry (see the
// package comment above on why geometry splits drains).
type groupKey struct {
	traceKey
	icBytes   int
	lineBytes int
}

// TraceDrains returns how many times a packed trace has been decoded
// into timing simulations (each RunSpec costs one drain; a batched
// group of N lanes costs one drain total). Together with SimLanes it
// makes batching efficiency observable: lanes/drain is the
// amortization factor.
func (r *Runner) TraceDrains() int64 { return r.traceDrains.Load() }

// SimLanes returns how many timing simulations have been fed by those
// drains.
func (r *Runner) SimLanes() int64 { return r.simLanes.Load() }

// SkippedCycles returns the total simulated cycles the quiescence
// fast-forward elided across every simulation this Runner has fed (see
// pipeline.SkipStats); FastForwards counts the jumps that elided them.
// Like TraceDrains/SimLanes these make the optimization's engagement
// observable without perturbing Stats, which stay byte-identical to a
// NoCycleSkip run.
func (r *Runner) SkippedCycles() int64 { return r.skippedCycles.Load() }

// FastForwards returns how many quiescence jumps those skipped cycles
// came from.
func (r *Runner) FastForwards() int64 { return r.fastForwards.Load() }

// addSkip folds one simulation's fast-forward counters into the
// Runner's totals.
func (r *Runner) addSkip(sk pipeline.SkipStats) {
	if sk.SkippedCycles != 0 {
		r.skippedCycles.Add(sk.SkippedCycles)
	}
	if sk.FastForwards != 0 {
		r.fastForwards.Add(sk.FastForwards)
	}
}

// RunSpecs simulates every Spec, batching cells that replay the same
// trace into one lockstep pipeline.Batch. Results are returned in spec
// order and are byte-identical to calling RunSpec per cell; only the
// cost model changes — one trace decode and one dependence pre-pass
// per (workload, program) group, amortized over all of its lanes. It
// shares RunSpec's Stats cache: a cell already simulated on the
// Runner's own configuration adds no lane, and each completed lane of
// that configuration is stored.
func (r *Runner) RunSpecs(ctx context.Context, specs []Spec) ([]Result, error) {
	out := make([]Result, len(specs))
	if len(specs) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1 (serial, cheap next to the timing loops): resolve each
	// spec to its exact program, profile and — for Proposed cells — the
	// optimizer report, deduplicating optimizer runs by (workload,
	// options) and folding the cells into trace groups and lanes.
	type optKey struct {
		workload string
		model    string // "" for the Runner's model
		opts     core.Options
	}
	type optVal struct {
		p   *prog.Program
		fp  uint64
		rep *core.Report
	}
	optCache := map[optKey]optVal{}
	groups := map[groupKey]*batchGroup{}
	var order []*batchGroup

	for i, spec := range specs {
		w := spec.Workload
		out[i] = Result{Workload: w.Name, Scheme: spec.Scheme}
		m := r.specModel(spec)
		entries := r.specEntries(spec, m)
		var modelKey string
		if spec.Model != nil {
			modelKey = spec.Model.Key()
		}
		prof, err := r.ProfileOf(w)
		if err != nil {
			return nil, err
		}
		out[i].Profile = prof

		var p *prog.Program // nil: the base program
		var fp uint64
		switch spec.Scheme {
		case SchemeTwoBit, SchemePerfect:
			fp = w.Fingerprint()
		case SchemeProposed:
			opts := w.Opt
			if spec.Opt != nil {
				opts = *spec.Opt
			}
			ok := optKey{w.Name, modelKey, opts}
			ov, hit := optCache[ok]
			if !hit {
				ov.p = w.Build()
				ov.rep, err = core.Optimize(ov.p, prof, m, opts)
				if err != nil {
					return nil, fmt.Errorf("bench: optimizing %s: %w", w.Name, err)
				}
				ov.fp = ov.p.Fingerprint()
				optCache[ok] = ov
			}
			p, fp = ov.p, ov.fp
			out[i].Report = ov.rep
		default:
			return nil, fmt.Errorf("bench: unknown scheme %d", spec.Scheme)
		}

		gk := groupKey{traceKey{w.Name, fp}, m.ICacheBytes, m.CacheLineBytes}
		sk := r.statsKey(spec, gk.traceKey, entries)
		if stats, ok := r.cachedStats(sk); ok {
			out[i].Stats = stats
			continue
		}
		g := groups[gk]
		if g == nil {
			g = &batchGroup{w: w, p: p, fp: fp, byKey: map[laneKey]*batchLane{}}
			groups[gk] = g
			order = append(order, g)
		}
		lk := laneKey{perfect: spec.Scheme == SchemePerfect, model: modelKey}
		if !lk.perfect {
			lk.entries = entries
		}
		ln := g.byKey[lk]
		if ln == nil {
			if len(g.lanes) == MaxBatchLanes {
				// Subgroup full: open a fresh drain for further lanes of
				// this key, bounding the lane state one drain holds.
				g = &batchGroup{w: w, p: p, fp: fp, byKey: map[laneKey]*batchLane{}}
				groups[gk] = g
				order = append(order, g)
			}
			ln = &batchLane{key: lk, model: spec.Model, cache: sk}
			g.byKey[lk] = ln
			g.lanes = append(g.lanes, ln)
			// The profiled run counts the base program's events; an
			// optimized program's differ a little, which only the
			// admission order sees.
			g.work += prof.DynInstrs
		}
		ln.specIdxs = append(ln.specIdxs, i)
	}

	// Phase 2: every group is one drain, and one lane-level scheduler
	// runs them all, so even a single hot drain spreads over every
	// worker (bounded like every other fan-out helper).
	drains := make([]pipeline.Drain, len(order))
	for i, g := range order {
		drains[i] = pipeline.Drain{
			Name: "bench: simulating " + g.w.Name,
			Work: g.work,
			Open: func() (*pipeline.Batch, pipeline.Source, error) { return r.openGroup(ctx, g) },
			Done: func(b *pipeline.Batch, stats []pipeline.Stats) {
				r.traceDrains.Add(1)
				r.simLanes.Add(int64(len(g.lanes)))
				r.addSkip(b.SkipStats())
				for j, ln := range g.lanes {
					r.storeStats(ln.cache, stats[j])
					for _, i := range ln.specIdxs {
						out[i].Stats = stats[j]
					}
				}
			},
		}
	}
	err := pipeline.RunDrains(ctx, drains, r.Parallelism)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// openGroup builds one group's lanes over its trace. TwoBit lanes get
// their counter tables carved out of a single contiguous backing array,
// in lane order, so the batch's predictor state stays dense; gshare and
// oracle lanes build their own predictors. Each lane simulates on its
// own model (pipeline.Batch supports heterogeneous lane models; the
// shared icache bits apply because the group key pinned the geometry).
func (r *Runner) openGroup(ctx context.Context, g *batchGroup) (*pipeline.Batch, pipeline.Source, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	tr, err := r.traceFor(g.w, g.p, g.fp)
	if err != nil {
		return nil, nil, err
	}

	laneModel := func(ln *batchLane) *machine.Model {
		if ln.model != nil {
			return ln.model
		}
		return r.Model
	}
	var sizes []int
	var twoBitLanes []*batchLane
	for _, ln := range g.lanes {
		if !ln.key.perfect && laneModel(ln).Predictor == machine.PredTwoBit {
			sizes = append(sizes, ln.key.entries)
			twoBitLanes = append(twoBitLanes, ln)
		}
	}
	preds := predict.NewTwoBitLanes(sizes)
	for i, ln := range twoBitLanes {
		ln.pred = preds[i]
	}
	cfgs := make([]pipeline.Config, len(g.lanes))
	for i, ln := range g.lanes {
		m := laneModel(ln)
		if ln.pred == nil {
			ln.pred = buildPredictor(m, schemeForLane(ln), ln.key.entries)
		}
		cfgs[i] = pipeline.Config{Model: m, Predictor: ln.pred, Context: ctx}
	}
	batch, err := pipeline.NewBatch(cfgs)
	if err != nil {
		return nil, nil, err
	}
	return batch, tr.NewReader(), nil
}

// schemeForLane maps a lane back to the scheme facet buildPredictor
// cares about: a perfect lane forces the oracle, anything else defers
// to the lane model's predictor family.
func schemeForLane(ln *batchLane) Scheme {
	if ln.key.perfect {
		return SchemePerfect
	}
	return SchemeTwoBit
}
