package fuzz

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"specguard/internal/analysis"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
	"specguard/internal/xform"

	"specguard/internal/isa"
)

// Failure is one oracle finding. Check names are stable identifiers —
// the shrinker only accepts a reduction that reproduces the same check,
// so it cannot wander from (say) a state divergence to a plain runtime
// error while deleting instructions.
type Failure struct {
	Check string // which oracle tripped, e.g. "variant-state:combined"
	Msg   string
}

func (f *Failure) Error() string { return f.Check + ": " + f.Msg }

// Variant is one transformation pipeline the oracle compares against
// the untransformed base program.
type Variant struct {
	Name string
	// Apply transforms p in place (p is a private clone).
	Apply func(p *prog.Program, prof *profile.Profile, m *machine.Model) error
}

// optimizerVariants covers each optimizer arm individually and
// combined, mirroring the paper's ablation axes, plus the standalone
// cleanup passes.
func optimizerVariants() []Variant {
	opt := func(o core.Options) func(*prog.Program, *profile.Profile, *machine.Model) error {
		return func(p *prog.Program, prof *profile.Profile, m *machine.Model) error {
			_, err := core.Optimize(p, prof, m, o)
			return err
		}
	}
	return []Variant{
		{"combined", opt(core.Options{})},
		{"no-speculation", opt(core.Options{DisableSpeculation: true})},
		{"no-guarding", opt(core.Options{DisableGuarding: true})},
		{"no-likely-split", opt(core.Options{DisableLikely: true, DisableSplitting: true})},
		{"unlowered", opt(core.Options{SkipLower: true})},
		{"spec-loads", opt(core.Options{SpeculateLoads: true})},
		{"merge-dce", func(p *prog.Program, _ *profile.Profile, _ *machine.Model) error {
			for _, f := range p.Funcs {
				xform.MergeBlocks(f)
				xform.EliminateDeadCode(f)
			}
			return prog.Verify(p, prog.VerifyIR)
		}},
	}
}

// Oracle runs the differential battery over one program.
type Oracle struct {
	Model    *machine.Model
	MaxSteps int64 // runaway backstop per run (default 2M)
	Variants []Variant
	// Mutate, when set, is applied to every transformed variant before
	// comparison. It exists for mutation-testing the oracle itself: a
	// deliberately broken "transform" injected here must be caught.
	Mutate func(name string, p *prog.Program)
}

// NewOracle returns an oracle on the R10000 model with the full
// variant battery.
func NewOracle() *Oracle {
	return &Oracle{Model: machine.R10000(), Variants: optimizerVariants()}
}

func (o *Oracle) interpOpts() interp.Options {
	max := o.MaxSteps
	if max == 0 {
		max = 2_000_000
	}
	return interp.Options{MemBytes: MemBytes, MaxSteps: max}
}

// observation is the architectural outcome the transforms must
// preserve: the final data-memory image plus the final value of every
// register the base program mentions. (Transforms allocate strictly
// from unmentioned registers, and liveness treats halt/ret as full
// barriers, so these survive every legal rewrite.)
type observation struct {
	res  interp.Result
	m    *interp.Interp
	regs []isa.Reg // base program's mentioned registers, sorted
}

// mentionedRegs collects every register named by any instruction of p,
// excluding the hardwired r0/p0.
func mentionedRegs(p *prog.Program) []isa.Reg {
	seen := map[isa.Reg]bool{}
	var tmp []isa.Reg
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				tmp = in.AppendDefs(tmp[:0])
				tmp = in.AppendUses(tmp)
				for _, r := range tmp {
					if r.Valid() && !r.IsZero() && !r.IsTruePred() {
						seen[r] = true
					}
				}
			}
		}
	}
	regs := make([]isa.Reg, 0, len(seen))
	for r := range seen {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	return regs
}

// regValue reads one register as comparable bits.
func regValue(m *interp.Interp, r isa.Reg) uint64 {
	switch {
	case r.IsInt():
		return uint64(m.Reg(r))
	case r.IsFP():
		return math.Float64bits(m.FReg(r))
	default:
		if m.Pred(r) {
			return 1
		}
		return 0
	}
}

// diffObservations compares base and variant outcomes and describes the
// first divergence, or returns "" when they agree.
func diffObservations(base *observation, v *interp.Interp) string {
	for _, r := range base.regs {
		if a, b := regValue(base.m, r), regValue(v, r); a != b {
			return fmt.Sprintf("register %v: base %#x, variant %#x", r, a, b)
		}
	}
	// Only data memory is observable: guard lowering redirects annulled
	// accesses into the scratch region below DataBase, whose contents
	// are junk by contract (see xform.ScratchBytes).
	for addr := int64(DataBase); addr < MemBytes; addr += 8 {
		a, _ := base.m.ReadWord(addr)
		b, _ := v.ReadWord(addr)
		if a != b {
			return fmt.Sprintf("memory word %#x: base %#x, variant %#x", addr, a, b)
		}
	}
	return ""
}

// digest is an FNV-1a fingerprint of a committed-event stream. It is
// only ever compared between runs of the *same* program (interp
// determinism, and the pipeline consuming the exact trace the profiler
// saw); transformed variants legitimately produce different streams.
type digest uint64

func (d *digest) fold(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	*d = digest(h)
}

func newDigest() digest { return digest(14695981039346656037) }

func (d *digest) event(ev interp.Event) {
	d.fold(ev.Addr)
	var bits uint64
	if ev.Branch {
		bits |= 1
	}
	if ev.Taken {
		bits |= 2
	}
	if ev.Annulled {
		bits |= 4
	}
	if ev.IsMem {
		bits |= 8
		d.fold(uint64(ev.MemAddr))
	}
	d.fold(bits)
}

// teeSource feeds the pipeline from an interpreter while fingerprinting
// the event stream it hands over.
type teeSource struct {
	inner *pipeline.InterpSource
	d     digest
}

func (t *teeSource) NextInto(ev *interp.Event) (bool, error) {
	ok, err := t.inner.NextInto(ev)
	if ok && err == nil {
		t.d.event(*ev)
	}
	return ok, err
}

// lintOptions maps a variant name to the analysis options its output
// contract implies: optimizer arms emit machine-legal code unless they
// skip lowering, and the spec-loads arm vouches for load addresses the
// same way it tells the optimizer to.
func lintOptions(variant string) analysis.Options {
	o := analysis.Options{Mode: analysis.ModeMachine}
	switch variant {
	case "unlowered", "merge-dce":
		o.Mode = analysis.ModeIR
	case "spec-loads":
		o.AllowSpeculativeLoads = true
	}
	return o
}

// Check runs the full battery on p and returns the first *Failure, or
// nil when every oracle agrees.
func (o *Oracle) Check(p *prog.Program) error {
	fail := func(check, format string, args ...any) error {
		return &Failure{Check: check, Msg: fmt.Sprintf(format, args...)}
	}

	// 0. Static legality lint of the base program. This is the one
	// oracle stage that needs no execution at all: a generator bug that
	// emits structurally unsound code is reported here instead of being
	// laundered into a confusing downstream divergence.
	if err := analysis.Analyze(p, analysis.Options{Mode: analysis.ModeIR}).Err(); err != nil {
		return fail("static-lint:base", "%v", err)
	}

	// 0b. Front-end agreement: interp, predecoded machine and packed-
	// trace replay must emit the same committed-event stream. Runs
	// before the base comparison so a front-end bug is named as such
	// instead of surfacing as a confusing downstream divergence.
	if err := o.CheckFrontEnd(p); err != nil {
		return err
	}

	// 0c. Leak soundness: with a synthetic secret region injected, every
	// wrong-path secret access the dynamic taint tracker flags inside
	// the speculative window must be covered by a static
	// spec-secret-load finding (see leak.go).
	if err := o.CheckLeakSoundness(p); err != nil {
		return err
	}

	// 1. Base architectural run: profile + event fingerprint.
	base, prof, baseDigest, err := o.runBase(p)
	if err != nil {
		return fail("base-run", "%v", err)
	}

	// 2. Profile serialization must round-trip bit-for-bit.
	if msg := checkProfileRoundTrip(prof); msg != "" {
		return fail("profile-roundtrip", "%s", msg)
	}

	// 3. Pipeline over the same program, invariant audits enabled. The
	// timing model consumes the commit trace, so its counts must match
	// the architectural run exactly — and the trace it consumed must
	// fingerprint identically (interp determinism).
	stats, pipeDigest, err := o.runPipeline(p)
	if err != nil {
		return fail("pipeline-invariant", "%v", err)
	}
	if pipeDigest != baseDigest {
		return fail("trace-digest", "pipeline consumed a different commit trace than the profiler (interp nondeterminism?)")
	}
	if msg := diffCounts(stats, base.res); msg != "" {
		return fail("pipeline-counts", "%s", msg)
	}

	// 3b. Lane isolation: N mixed-config lanes over one shared trace
	// drain must match one-lane Runs lane for lane (see CheckBatch).
	if err := o.CheckBatch(p); err != nil {
		return err
	}

	// 3c. Quiescence fast-forward agreement: skip-enabled Stats must be
	// byte-identical to a NoCycleSkip cycle-by-cycle run (see
	// CheckSkip).
	if err := o.CheckSkip(p); err != nil {
		return err
	}

	// 4. Every transform variant must preserve the architectural
	// outcome, and its own pipeline run must stay self-consistent.
	for _, v := range o.Variants {
		q := p.Clone()
		if err := v.Apply(q, prof, o.Model); err != nil {
			return fail("optimize:"+v.Name, "%v", err)
		}
		if o.Mutate != nil {
			o.Mutate(v.Name, q)
		}
		// Static lint runs before the variant executes: soundness bugs
		// that happen to be dynamically benign on this input (a
		// clobbered register the off-trace path never reads at runtime,
		// an overlapping phase split that still computes the right
		// values) are visible to the analyzer alone.
		if err := analysis.Analyze(q, lintOptions(v.Name)).Err(); err != nil {
			return fail("static-lint:"+v.Name, "%v", err)
		}
		vm, vres, err := o.runVariant(q)
		if err != nil {
			return fail("variant-run:"+v.Name, "%v", err)
		}
		if msg := diffObservations(base, vm); msg != "" {
			return fail("variant-state:"+v.Name, "%s", msg)
		}
		vstats, _, err := o.runPipeline(q)
		if err != nil {
			return fail("variant-pipeline:"+v.Name, "%v", err)
		}
		if msg := diffCounts(vstats, vres); msg != "" {
			return fail("variant-counts:"+v.Name, "%s", msg)
		}
	}
	return nil
}

// runBase interprets p, collecting the profile and the event digest.
func (o *Oracle) runBase(p *prog.Program) (*observation, *profile.Profile, digest, error) {
	m, err := interp.New(p, nil, o.interpOpts())
	if err != nil {
		return nil, nil, 0, err
	}
	prof := profile.NewProfile()
	d := newDigest()
	res, err := m.Run(func(ev interp.Event) {
		d.event(ev)
		if ev.Branch {
			prof.Record(ev.BranchSite, ev.Taken)
		}
	})
	if err != nil {
		return nil, nil, 0, err
	}
	prof.DynInstrs = res.DynInstrs
	prof.Annulled = res.Annulled
	obs := &observation{res: res, m: m, regs: mentionedRegs(p)}
	return obs, prof, d, nil
}

// runVariant interprets a transformed program to completion.
func (o *Oracle) runVariant(q *prog.Program) (*interp.Interp, interp.Result, error) {
	m, err := interp.New(q, nil, o.interpOpts())
	if err != nil {
		return nil, interp.Result{}, err
	}
	res, err := m.Run(nil)
	return m, res, err
}

// runPipeline simulates p on the timing model with SelfCheck audits on.
func (o *Oracle) runPipeline(p *prog.Program) (pipeline.Stats, digest, error) {
	m, err := interp.New(p, nil, o.interpOpts())
	if err != nil {
		return pipeline.Stats{}, 0, err
	}
	pipe, err := pipeline.New(pipeline.Config{
		Model:     o.Model,
		Predictor: predict.NewTwoBit(o.Model.PredictorEntries),
		SelfCheck: true,
	})
	if err != nil {
		return pipeline.Stats{}, 0, err
	}
	src := &teeSource{inner: pipeline.NewInterpSource(m), d: newDigest()}
	stats, err := pipe.Run(src)
	return stats, src.d, err
}

// diffCounts cross-checks the timing model's commit accounting against
// the architectural run that fed it.
func diffCounts(s pipeline.Stats, r interp.Result) string {
	switch {
	case s.Committed != r.DynInstrs:
		return fmt.Sprintf("committed %d != architectural dynamic instructions %d", s.Committed, r.DynInstrs)
	case s.Annulled != r.Annulled:
		return fmt.Sprintf("annulled %d != architectural %d", s.Annulled, r.Annulled)
	case s.CondBranches != r.Branches:
		return fmt.Sprintf("conditional branches %d != architectural %d", s.CondBranches, r.Branches)
	}
	return ""
}

// checkProfileRoundTrip saves prof, loads it back, and demands an
// exact match — counts, outcome bits and a byte-identical re-save.
func checkProfileRoundTrip(prof *profile.Profile) string {
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		return fmt.Sprintf("save: %v", err)
	}
	loaded, err := profile.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Sprintf("load: %v", err)
	}
	if loaded.DynInstrs != prof.DynInstrs || loaded.Annulled != prof.Annulled {
		return fmt.Sprintf("totals drifted: %d/%d -> %d/%d",
			prof.DynInstrs, prof.Annulled, loaded.DynInstrs, loaded.Annulled)
	}
	want, got := prof.Sites(), loaded.Sites()
	if len(want) != len(got) {
		return fmt.Sprintf("site count drifted: %d -> %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Site != g.Site || w.Outcomes.Len() != g.Outcomes.Len() ||
			w.Outcomes.String() != g.Outcomes.String() {
			return fmt.Sprintf("site %s outcomes drifted", w.Site)
		}
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		return fmt.Sprintf("re-save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		return "re-saved profile is not byte-identical"
	}
	return ""
}
