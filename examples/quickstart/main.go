// Quickstart: assemble a small program, profile it, run the paper's
// combined optimizer, and compare timing-simulator results under the
// three schemes of the paper's §6 (2-bit baseline, proposed, perfect).
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

// A loop with an unpredictable data-dependent branch (an LCG drives a
// coin flip): the classic if-conversion victim.
const src = `
func main:
entry:
	li r1, 0
	li r5, 12345
	li r9, 0
loop:
	mul r5, r5, 1103515245
	add r5, r5, 12345
	srl r6, r5, 16
	and r6, r6, 1
	beq r6, 0, heads
tails:
	add r9, r9, 1
	j next
heads:
	add r9, r9, 3
next:
	add r1, r1, 1
	blt r1, 5000, loop
exit:
	halt
`

func main() {
	model := machine.R10000()
	program := asm.MustParse(src)

	// 1. Instrumented profiling run (the paper's feedback pass).
	prof, _, err := profile.Collect(program.Clone(), interp.Options{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, bp := range prof.Sites() {
		fmt.Printf("branch %-12s count=%-6d taken=%.3f toggle=%.3f\n",
			bp.Site, bp.Count(), bp.TakenFreq(), bp.ToggleFactor())
	}

	// 2. The Fig. 6 optimizer.
	optimized := program.Clone()
	report, err := core.Optimize(optimized, prof, model, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer decisions:\n%s\n", report.String())

	// 3. Timing simulation under the three schemes.
	for _, cfg := range []struct {
		name string
		p    *prog.Program
		pred predict.Predictor
	}{
		{"2-bit baseline", program, predict.NewTwoBit(model.PredictorEntries)},
		{"proposed      ", optimized, predict.NewTwoBit(model.PredictorEntries)},
		{"perfect BP    ", program, predict.NewPerfect()},
	} {
		code, err := interp.Predecode(cfg.p, nil)
		if err != nil {
			log.Fatal(err)
		}
		pipe, err := pipeline.New(pipeline.Config{Model: model, Predictor: cfg.pred})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := pipe.Run(code.NewMachine(interp.Options{}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s  cycles=%-8d IPC=%.3f mispredicts=%d\n",
			cfg.name, stats.Cycles, stats.IPC(), stats.Mispredicts)
	}
}
