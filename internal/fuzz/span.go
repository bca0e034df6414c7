package fuzz

import (
	"fmt"
	"reflect"

	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/prog"
	"specguard/internal/trace"
)

// CheckSpan is the predictor-span oracle. It tests the rule by which
// bench.RunSpecs lets cells share a lane, predict.CanonicalEntries, on
// generated programs, whose conditional branches sit at far higher
// pcs, and far more densely, than the four kernels'. Lanes at the
// program's span and at 8× the span replay one trace drain with
// SelfCheck audits on: a 2-bit table, and gshare with a
// fingerprint-derived history length in 0–12. So does a 2-bit table of
// exactly bound entries, which indexes by modulo rather than by mask.
// The rule calls each family's sizes one machine, so their Stats must
// be identical.
//
// Stable check name:
//
//	predictor-span   a lane failed, or two sizes the rule calls one
//	                 machine gave different Stats
func (o *Oracle) CheckSpan(p *prog.Program) error {
	fail := func(format string, args ...any) error {
		return &Failure{Check: "predictor-span", Msg: fmt.Sprintf(format, args...)}
	}
	code, err := interp.Predecode(p, nil)
	if err != nil {
		return nil // construction errors are the front-end oracle's domain
	}
	tr, _, err := trace.Capture(code, o.interpOpts(), nil, nil)
	if err != nil {
		return nil // faulting programs are the front-end oracle's domain
	}

	bound := predict.IndexBound(p)
	hist := uint(p.Fingerprint() % 13)
	type lane struct {
		gshare  bool
		entries int
	}
	span := func(gshare bool) int {
		return predict.CanonicalEntries(machine.MaxPredictorEntries, bound, gshare, hist)
	}
	// Each family's sizes in a run: the rule calls them one machine.
	lanes := []lane{
		{false, span(false)}, {false, 8 * span(false)}, {false, max(bound, 1)},
		{true, span(true)}, {true, 8 * span(true)},
	}
	cfgs := make([]pipeline.Config, len(lanes))
	for i, ln := range lanes {
		var pred predict.Predictor = predict.NewTwoBit(ln.entries)
		if ln.gshare {
			pred = predict.NewGShare(ln.entries, hist)
		}
		cfgs[i] = pipeline.Config{Model: o.Model, Predictor: pred, SelfCheck: true}
	}
	got, err := pipeline.RunLanes(cfgs, tr.NewReader())
	if err != nil {
		return fail("bound %d, history %d: %v", bound, hist, err)
	}
	for i := 1; i < len(lanes); i++ {
		a, b := lanes[i-1], lanes[i]
		if a.gshare != b.gshare {
			continue
		}
		ca := predict.CanonicalEntries(a.entries, bound, a.gshare, hist)
		cb := predict.CanonicalEntries(b.entries, bound, b.gshare, hist)
		if ca != cb {
			return fail("bound %d, history %d, gshare %v: %d and %d entries canonicalize to %d and %d, not one size",
				bound, hist, a.gshare, a.entries, b.entries, ca, cb)
		}
		if !reflect.DeepEqual(got[i-1], got[i]) {
			return fail("bound %d, history %d, gshare %v: %d and %d entries diverge:\n%d: %+v\n%d: %+v",
				bound, hist, a.gshare, a.entries, b.entries, a.entries, got[i-1], b.entries, got[i])
		}
	}
	return nil
}
