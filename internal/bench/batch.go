package bench

import (
	"context"
	"fmt"

	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/prog"
)

// Batched execution: RunSpecs is the Runner's one timing path. It groups
// heterogeneous Specs by the program they run and their I-cache
// geometry — the (workload, program fingerprint, icache bytes, line
// bytes) tuple — and runs each group as one pipeline.Drain fed by one
// live run of the program, so a whole sweep costs one drain per
// distinct architectural execution and geometry instead of one per
// cell. Geometry is part of the key because the drain's shared
// precomputed icache bits are only sound for lanes whose cache shape
// matches (a drain's other lanes fall back to private caches,
// which is correct but forfeits the sharing); models may differ per
// lane in every other axis. Within a group, cells whose machines the
// program cannot tell apart share a lane outright (laneModel). A lane's
// Stats are byte-identical to its cell's alone in a one-cell call
// (pinned by TestGoldenStatsBatched and TestRunSpecsCanonicalLanes).

// batchLane is one timing simulation shared by every spec index whose
// cell has the same canonical machine (laneModel) within a subgroup.
// Its key in batchGroup.byKey is that model's Key.
type batchLane struct {
	model    *machine.Model // canonical: the predictor as the program sees it
	pred     predict.Predictor
	specIdxs []int
	cache    *statsKey // where Done stores the lane's Stats; nil: not cached
}

// batchGroup is one drain: all lanes timing the same (workload,
// program) architectural execution with one icache geometry.
type batchGroup struct {
	w     Workload
	p     *prog.Program   // nil: w's base program (see Runner.codeOf)
	prog  *program        // the program's cache entry
	m     *interp.Machine // the drain's source, from openGroup; idle again after Done
	work  int64           // estimated events × lanes, for admission order
	lanes []*batchLane
	byKey map[string]*batchLane
}

// groupKey folds the program identity with the icache geometry (see
// the package comment above on why geometry splits drains).
type groupKey struct {
	programKey
	icBytes   int
	lineBytes int
}

// laneModel returns the canonical machine of a cell on model m with
// predictor size entries, replaying a program whose conditional
// branches sit below pc/4 = bound: a Clone of m whose predictor fields
// keep only what the program can observe. The perfect scheme is the
// perfect family, which reads no table or history; a 2-bit table reads
// no history; table sizes become predict.CanonicalEntries. Cells whose
// lane models have equal Keys are one machine to the program, so they
// share a lane, and the lane simulates on the canonical model.
func laneModel(m *machine.Model, s Scheme, entries, bound int) *machine.Model {
	c := m.Clone()
	if s == SchemePerfect {
		c.Predictor = machine.PredPerfect
	}
	switch c.Predictor {
	case machine.PredPerfect:
		c.PredictorEntries, c.HistoryBits = 0, 0
	case machine.PredGShare:
		c.PredictorEntries = predict.CanonicalEntries(entries, bound, true, uint(c.HistoryBits))
	default:
		c.PredictorEntries, c.HistoryBits = predict.CanonicalEntries(entries, bound, false, 0), 0
	}
	return c
}

// TraceDrains returns how many drains have fed timing simulations:
// each is one live run of a program's committed-event trace into its
// lanes (a group of N lanes costs one drain, a one-cell call one drain
// of one lane). Together with SimLanes it makes batching efficiency
// observable: lanes/drain is the amortization factor.
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

// SimCycles returns the simulated cycles (Stats.Cycles) of those same
// simulations: one count per lane that ran, however many cells it
// served, so SkippedCycles/SimCycles is the share of simulated time
// the fast-forward elided.
func (r *Runner) SimCycles() int64 { return r.simCycles.Load() }

// addSkip folds the fast-forward counters of one drain and the cycles
// of its lanes' Stats into the Runner's totals.
func (r *Runner) addSkip(sk pipeline.SkipStats, lanes ...pipeline.Stats) {
	for _, st := range lanes {
		r.simCycles.Add(st.Cycles)
	}
	if sk.SkippedCycles != 0 {
		r.skippedCycles.Add(sk.SkippedCycles)
	}
	if sk.FastForwards != 0 {
		r.fastForwards.Add(sk.FastForwards)
	}
}

// RunSpecs simulates every Spec, batching cells that run the same
// program into the lanes of one drain. Results are returned in
// spec order, and each is byte-identical to its cell's in a one-cell
// call; only the cost model changes — one architectural run and one
// dependence pre-pass per (workload, program) group, amortized over all
// of its lanes, and one lane per machine the program can tell apart:
// cells differing only in predictor settings it never reads (a perfect
// cell's table, a 2-bit table's history, sizes past its branch-index
// span) share one.
//
// ctx is checked before any work and polled inside every lane's cycle
// loop, so a timed-out or abandoned call stops within microseconds of
// simulated work. Cache entries are never poisoned by cancellation: a
// cancelled call leaves the caches as a never-started one would, except
// that a profiling run already begun runs to completion (concurrent
// waiters still get it), and a drain it stopped drops its machine
// rather than leave it idle half-run. Timing-only variations (Entries,
// Model) reuse the program's predecode and its idle machines; a cell
// on the Runner's own configuration whose program was already simulated
// hits the Stats cache and adds no lane, and a completed lane with such
// a cell among its members is stored. The optimizer still runs for
// Proposed cells, because its output's fingerprint is part of the key.
func (r *Runner) RunSpecs(ctx context.Context, specs []Spec) ([]Result, error) {
	out := make([]Result, len(specs))
	if len(specs) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.prefetchProfiles(specs)

	// Phase 1 (serial, cheap next to the timing loops): resolve each
	// spec to its exact program, profile and — for Proposed cells — the
	// optimizer report, deduplicating optimizer runs by (workload,
	// options) and folding the cells into program groups and lanes.
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
	lanes := 0

	for i, spec := range specs {
		w := spec.Workload
		out[i] = Result{Workload: w.Name, Scheme: spec.Scheme}
		m := r.specModel(spec)
		entries := r.specEntries(spec, m)
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
			ok := optKey{w.Name, "", opts}
			if spec.Model != nil {
				ok.model = spec.Model.Key()
			}
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

		gk := groupKey{programKey{w.Name, fp}, m.ICacheBytes, m.CacheLineBytes}
		sk := r.statsKey(spec, gk.programKey, entries)
		if stats, ok := r.cachedStats(sk); ok {
			out[i].Stats = stats
			continue
		}
		e := entry(r, r.programs, gk.programKey)
		lm := laneModel(m, spec.Scheme, entries, r.boundOf(e, w, p))
		lk := lm.Key()
		g := groups[gk]
		if g == nil || g.byKey[lk] == nil && len(g.lanes) == pipeline.MaxBatchLanes {
			// A new group, or a new lane for a full subgroup: open a
			// fresh drain, bounding the lane state one drain holds.
			// Lane dedup applies within a drain.
			g = &batchGroup{w: w, p: p, prog: e, byKey: map[string]*batchLane{}}
			groups[gk] = g
			order = append(order, g)
		}
		ln := g.byKey[lk]
		if ln == nil {
			ln = &batchLane{model: lm}
			g.byKey[lk] = ln
			g.lanes = append(g.lanes, ln)
			lanes++
			// The profiled run counts the base program's events; an
			// optimized program's differ a little, which only the
			// admission order sees.
			g.work += prof.DynInstrs
		}
		if ln.cache == nil {
			ln.cache = sk // any member on the Runner's own configuration
		}
		ln.specIdxs = append(ln.specIdxs, i)
	}
	if len(order) == 0 {
		return out, nil // every cell came from the Stats cache
	}

	// Phase 2: every group is one drain, and one lane-level scheduler
	// runs them all on at most one worker per lane, so even a single hot
	// drain spreads over every core and a one-lane call stays on the
	// calling goroutine. Done runs only for a drain that ran its program
	// to the end, so only such a drain's machine goes back idle.
	drains := make([]pipeline.Drain, len(order))
	for i, g := range order {
		drains[i] = pipeline.Drain{
			Name: "bench: simulating " + g.w.Name,
			Work: g.work,
			Open: func() (pipeline.Source, []pipeline.Config, error) { return r.openGroup(ctx, g) },
			Done: func(stats []pipeline.Stats, skip pipeline.SkipStats) {
				r.traceDrains.Add(1)
				r.simLanes.Add(int64(len(g.lanes)))
				r.addSkip(skip, stats...)
				r.release(g.prog, g.m)
				for j, ln := range g.lanes {
					r.storeStats(ln.cache, stats[j])
					for _, i := range ln.specIdxs {
						out[i].Stats = stats[j]
					}
				}
			},
		}
	}
	err := pipeline.RunDrains(ctx, drains, r.workers(lanes))
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// indexBound is predict.IndexBound, a variable so tests can count its
// calls.
var indexBound = predict.IndexBound

// boundOf returns the branch-index span (predict.IndexBound) of e's
// program — p, or w's base program when p is nil — computing it once
// per program entry: the base program must be built and laid out for
// it, which would otherwise cost every one-cell call as much as its
// lane setup.
func (r *Runner) boundOf(e *program, w Workload, p *prog.Program) int {
	e.boundOnce.Do(func() {
		if p == nil {
			p = w.Build()
		}
		e.bound = indexBound(p)
	})
	return e.bound
}

// openGroup returns one group's source, a machine of the group's
// program (Runner.machine) that the drain runs live, and its lanes'
// configs. TwoBit lanes get their counter tables carved out of a single
// contiguous backing array, in lane order, so the drain's predictor
// state stays dense; gshare and oracle lanes build their own predictors.
// Each lane simulates on its canonical model (a drain's lanes may differ
// in model; the shared icache bits apply because the group key pinned
// the geometry).
func (r *Runner) openGroup(ctx context.Context, g *batchGroup) (pipeline.Source, []pipeline.Config, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	code, err := r.codeOf(g.prog, g.w, g.p)
	if err != nil {
		return nil, nil, err
	}
	if g.m, err = r.machine(g.prog, code, g.w); err != nil {
		return nil, nil, err
	}

	var sizes []int
	var twoBitLanes []*batchLane
	for _, ln := range g.lanes {
		if ln.model.Predictor == machine.PredTwoBit {
			sizes = append(sizes, ln.model.PredictorEntries)
			twoBitLanes = append(twoBitLanes, ln)
		}
	}
	preds := predict.NewTwoBitLanes(sizes)
	for i, ln := range twoBitLanes {
		ln.pred = preds[i]
	}
	cfgs := make([]pipeline.Config, len(g.lanes))
	for i, ln := range g.lanes {
		if ln.pred == nil {
			// The canonical model's family decides: laneModel made the
			// perfect scheme the perfect family.
			ln.pred = buildPredictor(ln.model, SchemeTwoBit, ln.model.PredictorEntries)
		}
		cfgs[i] = pipeline.Config{Model: ln.model, Predictor: ln.pred, Context: ctx}
	}
	return g.m, cfgs, nil
}
