package fuzz

import (
	"fmt"

	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/prog"
	"specguard/internal/trace"
)

// CheckFrontEnd is the front-end agreement oracle: the reference
// interpreter, the predecoded machine and packed-trace replay are three
// implementations of the same architectural semantics, and they must
// produce the same committed-event stream (or fail identically). Each
// stage has its own stable check name, so the shrinker preserves which
// front end disagreed while reducing:
//
//	frontend-predecode  interp vs. predecoded machine, in lockstep
//	frontend-capture    trace capture's summary vs. the reference run
//	frontend-replay     capture+replay vs. a fresh reference run
func (o *Oracle) CheckFrontEnd(p *prog.Program) error {
	opts := o.interpOpts()
	fail := func(check, format string, args ...any) error {
		return &Failure{Check: check, Msg: fmt.Sprintf(format, args...)}
	}

	ref, rerr := interp.New(p, nil, opts)
	code, cerr := interp.Predecode(p, nil)
	if (rerr == nil) != (cerr == nil) || (rerr != nil && rerr.Error() != cerr.Error()) {
		return fail("frontend-predecode", "construction: interp err=%v, predecode err=%v", rerr, cerr)
	}
	if rerr != nil {
		return nil // both front ends reject the program identically
	}

	// Stage 1: lockstep interp vs. machine — identical events, identical
	// terminal error (clean halt, MaxSteps, or a runtime fault).
	m := code.NewMachine(opts)
	var refErr error
	var ev interp.Event
	for i := int64(0); ; i++ {
		evR, errR := ref.Step()
		errM := m.Step(&ev)
		if (errR == nil) != (errM == nil) || (errR != nil && errR.Error() != errM.Error()) {
			return fail("frontend-predecode", "step %d: interp err=%v, machine err=%v", i, errR, errM)
		}
		if errR != nil {
			refErr = errR
			break
		}
		// Flat is a replay-acceleration hint the tree interpreter never
		// sets; verify it names the executed instruction, then exclude
		// it from the identity check.
		if code.Flat(ev.Flat).Instr != ev.Instr {
			return fail("frontend-predecode", "step %d: Flat hint %d does not name the executed instruction", i, ev.Flat)
		}
		ev.Flat = evR.Flat
		if !evR.SameArch(&ev) {
			return fail("frontend-predecode", "step %d: events differ:\ninterp:  %+v\nmachine: %+v", i, evR, ev)
		}
		if ref.Halted() != m.Halted() {
			return fail("frontend-predecode", "step %d: halted interp=%v, machine=%v", i, ref.Halted(), m.Halted())
		}
		if ref.Halted() {
			break
		}
	}
	for r := 1; r < isa.NumIntRegs; r++ {
		if a, b := ref.Reg(isa.R(r)), m.Reg(isa.R(r)); a != b {
			return fail("frontend-predecode", "final r%d: interp %d, machine %d", r, a, b)
		}
	}

	// Stage 2: capture. On a program whose run faults, capture must
	// surface the identical error; on a clean run its summary must match
	// the reference outcome.
	tr, res, capErr := trace.Capture(code, opts, nil, nil)
	if refErr != nil {
		if capErr == nil || capErr.Error() != refErr.Error() {
			return fail("frontend-capture", "interp failed (%v) but capture err=%v", refErr, capErr)
		}
		return nil // nothing to replay for a faulting program
	}
	if capErr != nil {
		return fail("frontend-capture", "reference ran clean but capture failed: %v", capErr)
	}
	if res.DynInstrs != ref.Steps() {
		return fail("frontend-capture", "capture counted %d dynamic instructions, reference executed %d", res.DynInstrs, ref.Steps())
	}
	for r := 1; r < isa.NumIntRegs; r++ {
		if a, b := ref.Reg(isa.R(r)), res.FinalStateR[r]; a != b {
			return fail("frontend-capture", "final r%d: interp %d, capture %d", r, a, b)
		}
	}

	// Stage 3: replay the packed trace against a second reference run,
	// event for event, and demand it ends exactly at the halt.
	ref2, err := interp.New(p, nil, opts)
	if err != nil {
		return fail("frontend-replay", "re-construction: %v", err)
	}
	rd := tr.NewReader()
	var rev interp.Event
	for i := int64(0); ; i++ {
		evR, errR := ref2.Step()
		if errR != nil {
			return fail("frontend-replay", "reference re-run faulted at step %d: %v (interp nondeterminism?)", i, errR)
		}
		ok, err := rd.NextInto(&rev)
		if err != nil {
			return fail("frontend-replay", "step %d: %v", i, err)
		}
		if !ok {
			return fail("frontend-replay", "replay ended after %d events, reference still running", i)
		}
		if code.Flat(rev.Flat).Instr != rev.Instr {
			return fail("frontend-replay", "step %d: Flat hint %d does not name the executed instruction", i, rev.Flat)
		}
		rev.Flat = evR.Flat
		if !evR.SameArch(&rev) {
			return fail("frontend-replay", "step %d: events differ:\ninterp: %+v\nreplay: %+v", i, evR, rev)
		}
		if ref2.Halted() {
			if ok, err := rd.NextInto(&rev); err != nil || ok {
				return fail("frontend-replay", "replay continued past the halt (ok=%v, err=%v)", ok, err)
			}
			break
		}
	}
	if tr.Events() != ref2.Steps() {
		return fail("frontend-replay", "trace records %d events, reference executed %d", tr.Events(), ref2.Steps())
	}
	return nil
}
