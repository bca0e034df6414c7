package pipeline

import "context"

// MaxBatchLanes caps the lanes bench folds into one drain. Lanes, not
// drains, are the unit of parallel work (RunDrains), so the cap does not
// buy fan-out: it bounds live lane state, since at most one drain per
// worker is live at once, and with it the lane free list (freeLanes).
const MaxBatchLanes = 32

// geometry sizes the decode window of a drain with these lanes so a
// refill can never overwrite a slot still referenced by any lane: a
// lane's oldest live reference (ROB front or fetch-buffer front) trails
// its cursor by at most ActiveList plus its fetch buffer (2 × IssueWidth)
// events, refills happen only when every live lane's cursor sits at the
// frontier, and the ring keeps two chunks so the previous chunk stays
// intact through the next refill. The floor of 512 events sets the
// scheduler's grain (one lane's run between refills, RunDrains) and
// makes nearly every drain's window the same size, so released windows
// fit the next one.
// horizon is the largest lane ActiveList, the reach of batchDispatch's
// minLive filter.
func geometry(lanes ...*Pipeline) (chunk, horizon int64) {
	need := 0
	for _, p := range lanes {
		if n := p.model.ActiveList + 3*p.model.IssueWidth; n > need {
			need = n
		}
		horizon = max(horizon, int64(p.model.ActiveList))
	}
	chunk = 512
	for chunk < int64(2*need) {
		chunk *= 2
	}
	return chunk, horizon
}

// start attaches every lane of a drain to an empty window over src and
// returns it.
func start(src Source, lanes ...*Pipeline) *window {
	chunk, horizon := geometry(lanes...)
	w := getWindow(src, chunk, horizon)
	// With two or more lanes, precompute icache outcomes for the most
	// common geometry (that of the first icache-enabled lane); matching
	// lanes read bits, others run their private cache. The bits always
	// describe a cold cache, which is what a fresh lane's private cache
	// would see. A one-lane drain has nothing to share, so it keeps its
	// private icache and the window builds none.
	var icBytes, icLine int
	for _, p := range lanes {
		if p.icache != nil && len(lanes) > 1 {
			icBytes, icLine = p.model.ICacheBytes, p.model.CacheLineBytes
			w.icKept = coldCache(w.icKept, icBytes, icLine)
			w.ic = w.icKept
			break
		}
	}
	for _, p := range lanes {
		p.attach(w)
		p.icShared = p.icache != nil && w.ic != nil &&
			p.model.ICacheBytes == icBytes && p.model.CacheLineBytes == icLine
	}
	return w
}

// RunLanes drains src once into one lane per Config and returns each
// lane's Stats, in Config order: RunDrains of that one drain on one
// worker, so a one-lane call runs as Pipeline.Run. Lane configs may
// differ in predictor, model, cache enables — anything but the event
// stream — and each lane's Stats are byte-identical to a Pipeline.Run
// of its Config over the same stream (pinned by the golden tests and the
// fuzz batch-vs-single oracle), so a sweep pays the decode and
// dependence pre-pass once per trace, not per cell.
func RunLanes(cfgs []Config, src Source) ([]Stats, error) {
	var out []Stats
	err := RunDrains(context.Background(), []Drain{{
		Open: func() (Source, []Config, error) { return src, cfgs, nil },
		Done: func(stats []Stats, _ SkipStats) { out = stats },
	}}, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}
