package pipeline

import (
	"context"
	"fmt"

	"specguard/internal/cache"
)

// Batch is a drain with N independently configured pipeline lanes: one
// Source replayed through one decode window, each lane reading it
// through its own cursor. Each lane's Stats are byte-identical to what
// Run with the same Config over the same stream produces (pinned by
// the golden tests and the fuzz batch-vs-single oracle), so a sweep
// pays the decode and dependence pre-pass once per trace, not per cell.
type Batch struct {
	lanes []*Pipeline
}

// NewBatch builds one lane per Config. Lane configs may differ in
// predictor, cache enables, fetch-buffer size — anything but the event
// stream.
func NewBatch(cfgs []Config) (*Batch, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("pipeline: NewBatch needs at least one Config")
	}
	b := &Batch{lanes: make([]*Pipeline, len(cfgs))}
	for i, cfg := range cfgs {
		p, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: batch lane %d: %w", i, err)
		}
		b.lanes[i] = p
	}
	return b, nil
}

// Lanes returns the number of lanes.
func (b *Batch) Lanes() int { return len(b.lanes) }

// geometry sizes the decode window of a drain with these lanes so a
// refill can never overwrite a slot still referenced by any lane: a
// lane's oldest live reference (ROB front or fetch-buffer front) trails
// its cursor by at most ActiveList + FetchBufferSize events, refills
// happen only when every live lane's cursor sits at the frontier, and
// the ring keeps two chunks so the previous chunk stays intact through
// the next refill. The floor of 512 events sets the scheduler's grain
// (one lane's run between refills, RunDrains) and makes nearly every
// drain's window the same size, so released windows fit the next one.
// horizon is the largest lane ActiveList, the reach of batchDispatch's
// minLive filter.
func geometry(lanes ...*Pipeline) (chunk, horizon int64) {
	need := 0
	for _, p := range lanes {
		if n := p.model.ActiveList + p.cfg.FetchBufferSize + p.model.IssueWidth; n > need {
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

// start attaches every lane to an empty window over src and returns it.
func (b *Batch) start(src Source) *window {
	chunk, horizon := geometry(b.lanes...)
	w := getWindow(src, chunk, horizon)
	// Precompute icache outcomes for the most common geometry (that of
	// the first icache-enabled lane); matching lanes read bits, others
	// run their private cache. The bits always describe a cold cache,
	// which is what a fresh lane's private cache would see.
	var icBytes, icLine int
	for _, p := range b.lanes {
		if p.icache != nil {
			icBytes, icLine = p.model.ICacheBytes, p.model.CacheLineBytes
			w.ic = cache.New(icBytes, icLine)
			break
		}
	}
	for _, p := range b.lanes {
		p.attach(w)
		p.icShared = p.icache != nil && w.ic != nil &&
			p.model.ICacheBytes == icBytes && p.model.CacheLineBytes == icLine
	}
	return w
}

// Run drains src once and returns one Stats per lane, in lane order. It
// is the one-drain, one-worker case of RunDrains.
func (b *Batch) Run(src Source) ([]Stats, error) {
	var out []Stats
	err := RunDrains(context.Background(), []Drain{{
		Open: func() (*Batch, Source, error) { return b, src, nil },
		Done: func(_ *Batch, stats []Stats) { out = stats },
	}}, 1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SkipStats sums the quiescence fast-forward counters over all lanes
// of the last drain.
func (b *Batch) SkipStats() SkipStats {
	var t SkipStats
	for _, p := range b.lanes {
		t.Add(p.SkipStats())
	}
	return t
}
