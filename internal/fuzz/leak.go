package fuzz

import (
	"fmt"

	"specguard/internal/analysis"
	"specguard/internal/interp"
	"specguard/internal/prog"
)

// Leak-soundness oracle: the static spec-secret-load rule claims to
// cover every memory access the dynamic taint tracker can flag inside
// the speculative window of a mispredicted branch. This stage checks
// that claim as a subset relation on one concrete program:
//
//	{ wrong-path accesses with tainted address, dist <= SpecWindow }
//	    ⊆ { spec-secret-load sites reported by analysis.Analyze }
//
// The dynamic side is the TaintMachine's per-branch WrongPath summary —
// predictor-independent ground truth for what a mispredict at each
// branch could touch — so the relation is checked for EVERY conditional
// branch the program commits, not just the ones a particular predictor
// happens to mispredict.

// leakRegion is the synthetic secret region the stage injects when the
// program declares none: the upper half of the generated-program data
// window [DataBase, DataBase+2048), so random masked accesses read
// secret words with probability ~1/2.
var leakRegion = prog.Region{Name: "fuzz-secret", Base: DataBase + 1024, Len: 1024, Secret: true}

// CheckLeakSoundness runs the static taint rules and the dynamic taint
// tracker over p (with leakRegion injected if p has no secret region)
// and fails if any dynamically flagged wrong-path access lacks a
// covering spec-secret-load finding. Programs whose construction or
// execution fails are skipped — runtime agreement is other stages' job.
func (o *Oracle) CheckLeakSoundness(p *prog.Program) error {
	n, err := o.leakSoundness(p)
	_ = n
	return err
}

// leakSoundness is CheckLeakSoundness returning also the number of
// dynamically flagged accesses, so tests can assert the sweep was not
// vacuous.
func (o *Oracle) leakSoundness(p *prog.Program) (int, error) {
	q := p
	if len(q.SecretRegions()) == 0 {
		q = p.Clone()
		if err := q.AddRegion(leakRegion); err != nil {
			return 0, nil // region conflicts with existing annotations: nothing to check
		}
	}

	res := analysis.Analyze(q, analysis.Options{Mode: analysis.ModeIR, Model: o.Model})
	static := map[string]bool{}
	for _, d := range res.Diags {
		if d.Rule == analysis.RuleSpecSecretLoad {
			static[fmt.Sprintf("%s.%s[%d]", d.Func, d.Block, d.Index)] = true
		}
	}

	code, err := interp.Predecode(q, nil)
	if err != nil {
		return 0, nil // construction failures belong to the front-end oracle
	}
	w := int32(o.Model.SpecWindow())
	tm := code.NewTaintMachine(o.interpOpts(), int(w))

	flagged := 0
	var failure error
	_, runErr := tm.Run(func(ev *interp.Event) {
		if failure != nil {
			return
		}
		for _, wp := range ev.WrongPath {
			if wp.Dist > w {
				continue
			}
			flagged++
			fl := code.Flat(wp.Flat)
			site := fmt.Sprintf("%s.%s[%d]", fl.Fn.Name, fl.Block.Name, fl.Index)
			if !static[site] {
				failure = &Failure{Check: "leak-soundness", Msg: fmt.Sprintf(
					"dynamic wrong-path secret access at %s (dist %d from %s.%s[%d], window %d) has no spec-secret-load finding",
					site, wp.Dist, ev.Fn.Name, ev.Block.Name, ev.Index, w)}
			}
		}
	})
	if failure != nil {
		return flagged, failure
	}
	if runErr != nil {
		return flagged, nil // runtime faults belong to the differential stages
	}
	return flagged, nil
}
