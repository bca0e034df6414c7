package bench

import (
	"math/rand"
	"testing"

	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
)

// TestQuickEndToEndOptimizerPreservesSemantics is the system-level
// property test: random loopy programs with data-dependent branches go
// through the full pipeline (profile → Fig. 6 optimizer → conditional-
// move lowering → machine verification → architectural re-execution →
// timing simulation) and must (a) verify machine-legal, (b) compute
// identical observable results, and (c) commit the same architectural
// work under the timing model as the interpreter executed.
func TestQuickEndToEndOptimizerPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(0xEED))
	model := machine.R10000()
	for trial := 0; trial < 25; trial++ {
		p := randomLoopProgram(rng)

		prof, baseRes, err := profile.Collect(p.Clone(), interp.Options{}, nil)
		if err != nil {
			t.Fatalf("trial %d: profile: %v\n%s", trial, err, p.String())
		}

		opt := p.Clone()
		opts := core.Options{
			AssumeAlias: []float64{0, 0, 0.5}[rng.Intn(3)],
		}
		if _, err := core.Optimize(opt, prof, model, opts); err != nil {
			t.Fatalf("trial %d: optimize: %v\n%s", trial, err, p.String())
		}
		if err := prog.Verify(opt, prog.VerifyMachine); err != nil {
			t.Fatalf("trial %d: not machine-legal: %v\n%s", trial, err, opt.String())
		}

		// (b) Observable results identical.
		m, err := interp.New(opt, nil, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		optRes, err := m.Run(nil)
		if err != nil {
			t.Fatalf("trial %d: optimized run: %v\n%s", trial, err, opt.String())
		}
		for i := 1; i <= 10; i++ {
			if baseRes.FinalStateR[i] != optRes.FinalStateR[i] {
				t.Fatalf("trial %d: r%d differs: %d vs %d\n--- before\n%s\n--- after\n%s",
					trial, i, baseRes.FinalStateR[i], optRes.FinalStateR[i], p.String(), opt.String())
			}
		}

		// (c) The timing model commits exactly the dynamic stream.
		code, err := interp.Predecode(opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := pipeline.New(pipeline.Config{Model: model, Predictor: predict.NewTwoBit(512)})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := pipe.Run(code.NewMachine(interp.Options{}))
		if err != nil {
			t.Fatalf("trial %d: simulate: %v", trial, err)
		}
		if stats.Committed != optRes.DynInstrs {
			t.Fatalf("trial %d: pipeline committed %d, interpreter executed %d",
				trial, stats.Committed, optRes.DynInstrs)
		}
		if stats.IPC() <= 0 || stats.IPC() > float64(model.IssueWidth) {
			t.Fatalf("trial %d: implausible IPC %.3f", trial, stats.IPC())
		}
	}
}

// randomLoopProgram builds a loop with 1–3 data-dependent diamonds fed
// by an in-program LCG plus a phase condition, exercising every
// optimizer arm. Registers r1–r10 carry observable state; memory stays
// above the predication scratch region.
func randomLoopProgram(rng *rand.Rand) *prog.Program {
	b := prog.NewBuilder("main")
	r := isa.R
	iters := int64(300 + rng.Intn(900))
	b.Block("entry").
		Li(r(1), 0).
		Li(r(5), int64(1+rng.Intn(100000))).
		Li(r(11), 16384)

	b.Block("loop").
		OpI(isa.Mul, r(5), r(5), 1103515245).
		OpI(isa.Add, r(5), r(5), 12345).
		OpI(isa.Srl, r(6), r(5), 16)

	nDiamonds := 1 + rng.Intn(3)
	for d := 0; d < nDiamonds; d++ {
		cond := r(6)
		kind := rng.Intn(3)
		test := b
		name := func(s string) string { return s + string(rune('0'+d)) }
		switch kind {
		case 0: // noisy bit test
			test.Block(name("t")).
				OpI(isa.And, r(7), cond, int64(1<<uint(rng.Intn(3)))).
				BranchI(isa.Beq, r(7), 0, name("T"))
		case 1: // biased comparison
			test.Block(name("t")).
				OpI(isa.And, r(7), cond, 255).
				BranchI(isa.Blt, r(7), int64(8+rng.Intn(240)), name("T"))
		default: // phase condition on the loop counter
			test.Block(name("t")).
				OpI(isa.Slt, r(7), r(1), iters/2).
				BranchI(isa.Bne, r(7), 0, name("T"))
		}
		emit := func(n int) {
			for k := 0; k < n; k++ {
				rd := r(2 + rng.Intn(4))
				switch rng.Intn(4) {
				case 0:
					b.OpI(isa.Add, rd, rd, int64(rng.Intn(9)))
				case 1:
					b.Op3(isa.Xor, rd, rd, r(6))
				case 2:
					b.Load(isa.Lw, rd, r(11), int64(8*rng.Intn(8)))
				default:
					b.OpI(isa.Sll, rd, r(6), int64(rng.Intn(4)))
				}
			}
		}
		b.Block(name("F"))
		emit(1 + rng.Intn(3))
		b.Jump(name("J"))
		b.Block(name("T"))
		emit(1 + rng.Intn(3))
		b.Block(name("J")).
			Op3(isa.Add, r(10), r(10), r(2))
	}

	b.Block("latch").
		OpI(isa.Add, r(1), r(1), 1).
		BranchI(isa.Blt, r(1), iters, "loop")
	b.Block("exit").Halt()

	p := prog.NewProgram()
	p.AddFunc(b.Func())
	return p
}
