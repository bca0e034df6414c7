// Phases shows the split-branch decision responding to predictor
// pressure — the condition under which the paper's transformation pays
// on this machine model. The same phase-structured loop is optimized
// twice: with a private predictor (the cost model declines to split;
// long phases are already predicted) and under heavy counter aliasing
// (biased phases move to branch-likely versions that need no predictor
// entry, the anomalous phase is guarded, and measured mispredictions
// collapse).
package main

import (
	"fmt"
	"log"

	"specguard/internal/asm"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
)

const phased = `
func main:
entry:
	li r1, 0
	li r9, 0
loop:
	slt r2, r1, 800
	bne r2, 0, phaseA
mid:
	slt r2, r1, 1200
	beq r2, 0, phaseC
alt:
	and r3, r1, 1
	j check
phaseA:
	li r3, 0
	j check
phaseC:
	li r3, 1
	j check
check:
	beq r3, 0, T
F:
	add r9, r9, 1
	j J
T:
	add r9, r9, 10
J:
	add r1, r1, 1
	blt r1, 2000, loop
exit:
	halt
`

func main() {
	model := machine.R10000()
	p := asm.MustParse(phased)
	prof, _, err := profile.Collect(p.Clone(), interp.Options{}, nil)
	if err != nil {
		log.Fatal(err)
	}

	bp := prof.Site("main.check")
	fmt.Printf("main.check: taken=%.2f toggle=%.2f — useless to a one-time metric\n", bp.TakenFreq(), bp.ToggleFactor())
	for _, s := range bp.Segments(profile.SegmentOptions{}) {
		fmt.Printf("  phase [%4d,%4d): %-9s taken=%.2f\n", s.Start, s.End, s.Class, s.TakenFreq)
	}
	fmt.Println()

	for _, cfg := range []struct {
		name  string
		alias float64
	}{
		{"private predictor (no aliasing)", 0},
		{"heavy counter aliasing (0.6)", 0.6},
	} {
		opt := p.Clone()
		rep, err := core.Optimize(opt, prof, model, core.Options{AssumeAlias: cfg.alias})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", cfg.name)
		for _, d := range rep.Decisions {
			if d.Site == "main.check" {
				fmt.Printf("  %-14s %s\n", d.Action, d.Detail)
			}
		}
		base := simulate(p, model)
		after := simulate(opt, model)
		fmt.Printf("  baseline : cycles=%-7d mispredicts=%d\n", base.Cycles, base.Mispredicts)
		fmt.Printf("  optimized: cycles=%-7d mispredicts=%d\n\n", after.Cycles, after.Mispredicts)
	}
}

func simulate(p *prog.Program, model *machine.Model) pipeline.Stats {
	code, err := interp.Predecode(p, nil)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.Config{Model: model, Predictor: predict.NewTwoBit(model.PredictorEntries)})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := pipe.Run(code.NewMachine(interp.Options{}))
	if err != nil {
		log.Fatal(err)
	}
	return stats
}
