package fuzz

import (
	"context"
	"fmt"
	"reflect"

	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/prog"
	"specguard/internal/trace"
)

// CheckBatch is the lane-isolation oracle: the lanes of one drain of a
// packed trace (pipeline.RunLanes) must produce, each, Stats byte-identical
// to a one-lane Run of the same configuration over a fresh drain of the
// same trace — N lanes sharing a window against one. The lane
// count (2–4), the mix of predictor configurations (two-bit table
// sizes plus an occasional perfect-prediction lane) and per-lane
// machine-model variants (narrow fetch, shallow ROB, throttled fetch
// rate — all Validate-legal derivations of the oracle's base model)
// derive from the program fingerprint, so every fuzz seed exercises a
// different deterministic mix. Every run has SelfCheck audits on,
// which also exercises the lane-isolation invariants. The
// same lane mix is then split over two drains of the trace and run by
// the lane scheduler on two workers, which must not change any lane.
//
// Stable check names:
//
//	batch-run        the batched drain itself failed (invariant trip)
//	batch-single     a reference one-lane Run failed
//	batch-vs-single  some lane's Stats diverged from its reference
//	batch-split      the two-drain, two-worker run failed or diverged
func (o *Oracle) CheckBatch(p *prog.Program) error {
	fail := func(check, format string, args ...any) error {
		return &Failure{Check: check, Msg: fmt.Sprintf(format, args...)}
	}

	code, err := interp.Predecode(p, nil)
	if err != nil {
		return nil // construction errors are the front-end oracle's domain
	}
	tr, _, err := trace.Capture(code, o.interpOpts(), nil, nil)
	if err != nil {
		return nil // faulting programs are the front-end oracle's domain
	}

	// Deterministic lane mix from the program fingerprint.
	h := p.Fingerprint()
	lanes := 2 + int(h%3)
	kinds := make([]int, lanes) // 0 → perfect, otherwise a TwoBit size
	var sizes []int
	for i := range kinds {
		sel := (h >> (7 * uint(i))) % 4
		if sel == 0 && i > 0 {
			kinds[i] = 0 // perfect lane (never lane 0, so sizes is non-empty)
		} else {
			kinds[i] = 128 << (sel % 3) // 128, 256 or 512 entries
			sizes = append(sizes, kinds[i])
		}
	}

	// Per-lane machine-model variants, also fingerprint-derived. Every
	// variant is a Clone of the oracle's base model and stays
	// Validate-legal against the R10000 defaults (queues 16 ≥ any width
	// used here, ActiveList 16 ≥ width 4).
	models := make([]*machine.Model, lanes)
	for i := range models {
		m := o.Model
		switch (h >> (5*uint(i) + 3)) % 4 {
		case 1:
			m = m.Clone()
			m.IssueWidth = 2
		case 2:
			m = m.Clone()
			m.ActiveList = 16
			m.RenameRegs = 16
		case 3:
			m = m.Clone()
			m.ThrottledFetchWidth = 1
		}
		if m != o.Model {
			if err := m.Validate(); err != nil {
				return fail("batch-run", "lane %d model variant invalid: %v", i, err)
			}
		}
		models[i] = m
	}

	newPreds := func() []predict.Predictor {
		tb := predict.NewTwoBitLanes(sizes)
		out := make([]predict.Predictor, lanes)
		ti := 0
		for i, k := range kinds {
			if k == 0 {
				out[i] = predict.NewPerfect()
			} else {
				out[i] = tb[ti]
				ti++
			}
		}
		return out
	}
	config := func(i int, pred predict.Predictor) pipeline.Config {
		return pipeline.Config{Model: models[i], Predictor: pred, SelfCheck: true}
	}

	cfgs := make([]pipeline.Config, lanes)
	for i, pred := range newPreds() {
		cfgs[i] = config(i, pred)
	}
	got, err := pipeline.RunLanes(cfgs, tr.NewReader())
	if err != nil {
		return fail("batch-run", "lanes=%v: %v", kinds, err)
	}
	// The drain released its lanes, and the next New calls rebuild them,
	// so the reference runs below and later seeds simulate on recycled
	// lanes.

	// Reference: each configuration standalone, fresh predictor state,
	// fresh trace cursor.
	for i, pred := range newPreds() {
		single, err := pipeline.New(config(i, pred))
		if err != nil {
			return fail("batch-single", "lane %d: %v", i, err)
		}
		want, err := single.Run(tr.NewReader())
		if err != nil {
			return fail("batch-single", "lane %d (%v): %v", i, kinds[i], err)
		}
		if !reflect.DeepEqual(got[i], want) {
			return fail("batch-vs-single", "lane %d of %d (kind %v): batched stats diverge:\nbatched: %+v\nsingle:  %+v",
				i, lanes, kinds[i], got[i], want)
		}
	}

	// Lanes [0, lanes/2) and [lanes/2, lanes) as two drains on two
	// workers. The TwoBit lanes still share one backing array across
	// the drains, as a concurrent sweep's lanes may.
	preds := newPreds()
	bounds := [3]int{0, lanes / 2, lanes}
	var split [2][]pipeline.Stats
	drains := make([]pipeline.Drain, 2)
	for d := range drains {
		drains[d] = pipeline.Drain{
			Open: func() (pipeline.Source, []pipeline.Config, error) {
				var cfgs []pipeline.Config
				for i := bounds[d]; i < bounds[d+1]; i++ {
					cfgs = append(cfgs, config(i, preds[i]))
				}
				return tr.NewReader(), cfgs, nil
			},
			Done: func(st []pipeline.Stats, _ pipeline.SkipStats) { split[d] = st },
		}
	}
	if err := pipeline.RunDrains(context.Background(), drains, 2); err != nil {
		return fail("batch-split", "lanes=%v split at %d: %v", kinds, bounds[1], err)
	}
	for i, st := range append(split[0], split[1]...) {
		if !reflect.DeepEqual(st, got[i]) {
			return fail("batch-split", "lane %d of %d (kind %v) split at %d: stats diverge from the one-drain run:\nsplit:     %+v\none drain: %+v",
				i, lanes, kinds[i], bounds[1], st, got[i])
		}
	}
	return nil
}
