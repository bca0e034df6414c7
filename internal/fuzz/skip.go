package fuzz

import (
	"context"
	"fmt"
	"reflect"

	"specguard/internal/interp"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/prog"
	"specguard/internal/trace"
)

// CheckSkip is the quiescence fast-forward oracle: every Stats a
// pipeline produces with cycle skipping enabled (the default) must be
// byte-identical to the same configuration run cycle by cycle under
// Config.NoCycleSkip. It runs a small lane mix in one drain both ways:
// lane 1 carries a machine-model variant biased toward quiescence
// (throttled fetch, stretched divide latency, shallow rename pool — the
// shapes with the longest dead stretches), the other lanes the base
// model. The variant and lane count derive from the program
// fingerprint, so every fuzz seed pins a different configuration. All
// runs keep SelfCheck on, which audits each fast-forward jump (no
// ready entry skipped, no wheel event inside the skipped range).
//
// Stable check names:
//
//	skip-run               a skip-enabled run failed outright
//	skip-ref               the NoCycleSkip reference run failed
//	skip-counters          NoCycleSkip run still reported fast-forwards
//	skip-batch-vs-noskip   some lane's Stats diverged
func (o *Oracle) CheckSkip(p *prog.Program) error {
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

	// Fingerprint-derived model variant biased toward quiescence: the
	// fast-forward path only earns its keep (and only has bugs to show)
	// when dead cycles exist, so half the variants stretch latencies or
	// throttle fetch. Every variant is Validate-legal.
	h := p.Fingerprint()
	model := o.Model
	switch (h >> 11) % 4 {
	case 1:
		model = model.Clone()
		model.ThrottledFetchWidth = 1
	case 2:
		model = model.Clone()
		model.FPDivLat = 24
		model.DivLat = 20
	case 3:
		model = model.Clone()
		model.RenameRegs = 16
		model.ActiveList = 16
	}
	if model != o.Model {
		if err := model.Validate(); err != nil {
			return fail("skip-run", "model variant invalid: %v", err)
		}
	}

	// Parked lanes (unequal cycle counts) are exactly where skipping
	// inside a drain can go wrong, so the mix deliberately pairs fast
	// and slow models.
	size := 128 << (h % 3) // 128, 256 or 512 predictor entries
	lanes := 2 + int(h%2)
	run := func(noSkip bool) ([]pipeline.Stats, pipeline.SkipStats, error) {
		cfgs := make([]pipeline.Config, lanes)
		tb := predict.NewTwoBitLanes(sizesFor(lanes, size))
		for i := range cfgs {
			m := o.Model
			if i == 1 {
				m = model // the quiescence-biased variant rides along
			}
			cfgs[i] = pipeline.Config{
				Model: m, Predictor: tb[i], SelfCheck: true, NoCycleSkip: noSkip,
			}
		}
		var st []pipeline.Stats
		var sk pipeline.SkipStats
		err := pipeline.RunDrains(context.Background(), []pipeline.Drain{{
			Open: func() (pipeline.Source, []pipeline.Config, error) { return tr.NewReader(), cfgs, nil },
			Done: func(stats []pipeline.Stats, skip pipeline.SkipStats) { st, sk = stats, skip },
		}}, 1)
		return st, sk, err
	}
	got, sk, err := run(false)
	if err != nil {
		return fail("skip-run", "lanes=%d model=%d: %v", lanes, (h>>11)%4, err)
	}
	want, off, err := run(true)
	if err != nil {
		return fail("skip-ref", "lanes=%d: %v", lanes, err)
	}
	if off != (pipeline.SkipStats{}) {
		return fail("skip-counters", "NoCycleSkip run fast-forwarded anyway: %+v", off)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fail("skip-batch-vs-noskip",
				"lane %d of %d: stats diverge with skipping on (%d cycles skipped in %d jumps over all lanes):\nskip:   %+v\nnoskip: %+v",
				i, lanes, sk.SkippedCycles, sk.FastForwards, got[i], want[i])
		}
	}
	return nil
}

// sizesFor spreads distinct two-bit table sizes across n lanes so the
// batched mix never runs two identical predictors in lockstep.
func sizesFor(n, base int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base << uint(i%3)
	}
	return out
}
