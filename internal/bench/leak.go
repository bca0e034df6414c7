package bench

import (
	"context"
	"fmt"
	"strings"

	"specguard/internal/analysis"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/pipeline"
	"specguard/internal/prog"

	"specguard/internal/isa"
)

// leak.go is the speculative-leak experiment: two Spectre-shaped victim
// kernels (unprotected and guarded), a runner entry point that feeds
// the timing pipeline from a live taint-tracking source, and the
// ablation table cross-checking the static lint rules against the
// dynamic ground truth.
//
// The victims are deliberately NOT in All(): the paper's Table 1–4
// registry (and the golden Stats pinned over it) is about performance,
// not security, and its order and length are pinned by tests.

const (
	victimIdx    = 1 << 16          // attacker-controlled index stream (public)
	victimArr    = 1 << 17          // 64-word public array
	victimArrLen = 64 * 8           //
	victimSecret = victimArr + 64*8 // secret region abutting the array
	victimSecLen = 128 * 8          //
	victimOut    = 1 << 19          //
	victimN      = 6000             // trips
)

var (
	victimProto        = protoCache{build: func() *prog.Program { return buildVictim(false) }}
	victimGuardedProto = protoCache{build: func() *prog.Program { return buildVictim(true) }}
)

// LeakWorkloads returns the victim kernels, leaky first.
func LeakWorkloads() []Workload {
	return []Workload{Victim(), VictimGuarded()}
}

// LeakWorkloadByName resolves a victim kernel by name.
func LeakWorkloadByName(name string) (Workload, error) {
	for _, w := range LeakWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown leak workload %q", name)
}

// Victim is the classic bounds-check-bypass victim: a loop reads an
// attacker-controlled index, bounds-checks it against the public
// array's length, and — when in bounds — loads the element and probes
// the array again at an element-derived offset. The index stream is
// mostly in-bounds, training the check's branch; the rare out-of-bounds
// index resolves the check the other way, and on a mispredict the wrong
// path runs the body with the wild index: the first load reads the
// secret region abutting the array, the second load's address carries
// it. The committed stream never touches the secret, so every flagged
// access is purely speculative.
func Victim() Workload {
	return victimProto.workload("victim", initVictim)
}

// VictimGuarded is the same kernel with the paper's guarded execution
// closing the leak: both body loads are predicated on the bounds check,
// so a wrong-path execution with an out-of-bounds index annuls them
// before they can touch memory.
func VictimGuarded() Workload {
	return victimGuardedProto.workload("victim-guarded", initVictim)
}

func buildVictim(guarded bool) *prog.Program {
	b := prog.NewBuilder("main")
	r := isa.R
	b.Block("entry").
		Li(r(9), victimArr).
		Li(r(10), victimIdx).
		Li(r(11), victimOut).
		Li(r(13), victimN).
		Li(r(21), 64). // array length in words
		Li(r(1), 0)

	loop := b.Block("loop").
		OpI(isa.Sll, r(12), r(1), 3).
		Op3(isa.Add, r(12), r(12), r(10)).
		Load(isa.Lw, r(14), r(12), 0).    // idx = idxs[i]
		Op3(isa.Slt, r(20), r(14), r(21)) // in-bounds?
	if guarded {
		loop.OpI(isa.PEq, isa.P(1), r(20), 1)
	}
	loop.BranchI(isa.Beq, r(20), 0, "skip") // rarely taken: trains not-taken

	guard := func(in isa.Instr) isa.Instr {
		if guarded {
			in.Pred = isa.P(1)
		}
		return in
	}
	b.Block("body").
		OpI(isa.Sll, r(15), r(14), 3).
		Op3(isa.Add, r(15), r(15), r(9)).
		Emit(guard(isa.Instr{Op: isa.Lw, Rd: r(5), Rs: r(15)})). // v = A[idx]
		OpI(isa.And, r(16), r(5), 63).
		OpI(isa.Sll, r(16), r(16), 3).
		Op3(isa.Add, r(16), r(16), r(9)).
		Emit(guard(isa.Instr{Op: isa.Lw, Rd: r(6), Rs: r(16)})). // probe A[v&63]
		Op3(isa.Add, r(7), r(7), r(6))

	b.Block("skip").
		OpI(isa.Add, r(1), r(1), 1).
		Branch(isa.Blt, r(1), r(13), "loop")
	b.Block("exit").
		Store(isa.Sw, r(7), r(11), 0).
		Halt()

	p := prog.NewProgram()
	p.AddFunc(b.Func())
	p.MustAddRegion(prog.Region{Name: "idx", Base: victimIdx, Len: victimN * 8})                   //sgtaint:public
	p.MustAddRegion(prog.Region{Name: "arr", Base: victimArr, Len: victimArrLen})                  //sgtaint:public
	p.MustAddRegion(prog.Region{Name: "key", Base: victimSecret, Len: victimSecLen, Secret: true}) //sgtaint:secret
	p.MustAddRegion(prog.Region{Name: "out", Base: victimOut, Len: 64})                            //sgtaint:public
	return p
}

func initVictim(m interp.Memory) error {
	g := lcg{s: 0x5EC3E7}
	for i := int64(0); i < victimN; i++ {
		idx := int64(g.next() % 64)
		if i%137 == 136 {
			// The attack: an index past the array, into the secret.
			idx = 64 + int64(g.next()%128)
		}
		if err := m.WriteWord(victimIdx+8*i, idx); err != nil {
			return err
		}
	}
	for i := int64(0); i < 64; i++ {
		if err := m.WriteWord(victimArr+8*i, int64(g.next()%256)); err != nil {
			return err
		}
	}
	for i := int64(0); i < 128; i++ {
		if err := m.WriteWord(victimSecret+8*i, int64(g.next())); err != nil {
			return err
		}
	}
	return nil
}

// LeakResult is one cell of the leak ablation: the timing run with leak
// tracking on, plus the static pass's verdict on the same program.
type LeakResult struct {
	Workload string
	Scheme   Scheme
	Stats    pipeline.Stats
	// Static rule counts from analysis.Analyze over the exact program
	// simulated (post-optimizer for SchemeProposed).
	StaticSpec   int // spec-secret-load
	StaticDep    int // secret-dep-load
	StaticBranch int // secret-dep-branch
}

// RunLeak simulates one (workload, scheme) cell with leak tracking.
// Unlike RunSpec it feeds the pipeline from its own taint-tracking
// machine, not a pooled interp.Machine, whose events carry no taint. The
// machine starts from the workload's cached input image and walks each
// wrong path as far as the model's speculative window
// (Model.SpecWindow), so every wrong-path access the pipeline may count
// is seen. RunLeak also runs the static leak rules over the same program
// for the cross-check.
func (r *Runner) RunLeak(ctx context.Context, w Workload, s Scheme) (LeakResult, error) {
	out := LeakResult{Workload: w.Name, Scheme: s}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	p := w.Build()
	if s == SchemeProposed {
		prof, err := r.ProfileOf(w)
		if err != nil {
			return out, err
		}
		if _, err := core.Optimize(p, prof, r.Model, w.Opt); err != nil {
			return out, fmt.Errorf("bench: optimizing %s: %w", w.Name, err)
		}
	}

	res := analysis.Analyze(p, analysis.Options{Model: r.Model})
	for _, d := range res.Diags {
		switch d.Rule {
		case analysis.RuleSpecSecretLoad:
			out.StaticSpec++
		case analysis.RuleSecretDepLoad:
			out.StaticDep++
		case analysis.RuleSecretDepBranch:
			out.StaticBranch++
		}
	}

	code, err := interp.Predecode(p, nil)
	if err != nil {
		return out, fmt.Errorf("bench: predecoding %s: %w", w.Name, err)
	}
	img, err := r.imageOf(w)
	if err != nil {
		return out, fmt.Errorf("bench: initializing %s: %w", w.Name, err)
	}
	// The wrong-path walk must reach as far as the pipeline counts.
	tm := code.NewTaintMachine(interp.Options{Image: img}, r.Model.SpecWindow())

	pipe, err := pipeline.New(pipeline.Config{
		Model:      r.Model,
		Predictor:  buildPredictor(r.Model, s, r.entries()),
		TrackLeaks: true,
		Context:    ctx,
	})
	if err != nil {
		return out, err
	}
	stats, err := pipe.Run(tm)
	if err != nil {
		return out, fmt.Errorf("bench: simulating %s: %w", w.Name, err)
	}
	out.Stats = stats
	return out, nil
}

// RunLeakAll runs the full leak ablation: every victim workload under
// every scheme, in table order.
func (r *Runner) RunLeakAll() ([]LeakResult, error) {
	var out []LeakResult
	for _, w := range LeakWorkloads() {
		for _, s := range []Scheme{SchemeTwoBit, SchemeProposed, SchemePerfect} {
			res, err := r.RunLeak(context.Background(), w, s)
			if err != nil {
				return out, err
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// FormatLeakTable renders the leak ablation: dynamic counts (committed
// secret-indexed accesses and wrong-path secret accesses inside the
// speculative window) against the static rule counts, per workload and
// scheme.
func FormatLeakTable(results []LeakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Speculative-leak ablation: dynamic flags vs static rules\n")
	fmt.Fprintf(&b, "%-16s %-10s %12s %12s %10s %10s %10s %10s\n",
		"workload", "scheme", "dyn-commit", "dyn-spec", "mispred", "st-spec", "st-dep", "st-branch")
	for _, r := range results {
		fmt.Fprintf(&b, "%-16s %-10s %12d %12d %10d %10d %10d %10d\n",
			r.Workload, r.Scheme,
			r.Stats.SecretAccesses, r.Stats.SpecSecretAccesses, r.Stats.Mispredicts,
			r.StaticSpec, r.StaticDep, r.StaticBranch)
	}
	b.WriteString(`
dyn-commit  committed secret-indexed accesses (architectural leaks)
dyn-spec    wrong-path secret accesses within the speculative window of
            a mispredicted branch (squashed, but the D-cache saw them)
st-*        static taint findings on the simulated program: every
            dyn-spec access is covered by a st-spec site (soundness);
            the static pass may flag more (it cannot see that guarded
            wrong paths annul, nor which indices stay in bounds)
`)
	return b.String()
}
