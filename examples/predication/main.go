// Predication demonstrates guarded execution's two faces (paper §3–4):
// if-converting an unpredictable branch with small sides removes every
// misprediction and wins, while guarding a region with long lopsided
// sides ("when the disparities between schedule lengths for two
// mutually exclusive paths are high") would lose — and the optimizer's
// cost model declines it.
package main

import (
	"fmt"
	"log"
	"strings"

	"specguard/internal/asm"
	"specguard/internal/core"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/pipeline"
	"specguard/internal/predict"
	"specguard/internal/profile"
	"specguard/internal/prog"
)

const noisySmall = `
func main:
entry:
	li r1, 0
	li r5, 99991
loop:
	mul r5, r5, 1103515245
	add r5, r5, 12345
	srl r6, r5, 17
	and r6, r6, 1
	beq r6, 0, T
F:
	add r7, r7, 1
	j J
T:
	add r8, r8, 1
J:
	add r1, r1, 1
	blt r1, 4000, loop
exit:
	halt
`

// Same noisy condition, but the rare side is a long dependent chain:
// guarding would execute it every iteration.
const noisyLopsided = `
func main:
entry:
	li r1, 0
	li r5, 99991
loop:
	mul r5, r5, 1103515245
	add r5, r5, 12345
	srl r6, r5, 17
	and r6, r6, 7
	beq r6, 0, T
F:
	add r7, r7, 1
	j J
T:
	add r8, r8, 1
	add r8, r8, 2
	add r8, r8, 3
	add r8, r8, 4
	add r8, r8, 5
	add r8, r8, 6
	add r8, r8, 7
	add r8, r8, 8
	add r8, r8, 9
	add r8, r8, 10
	add r8, r8, 11
	add r8, r8, 12
J:
	add r1, r1, 1
	blt r1, 4000, loop
exit:
	halt
`

func main() {
	demo("small symmetric sides (guarding wins)", noisySmall)
	demo("long lopsided side (guarding declined)", noisyLopsided)
}

func demo(title, src string) {
	fmt.Printf("=== %s ===\n", title)
	model := machine.R10000()
	p := asm.MustParse(src)
	prof, _, err := profile.Collect(p.Clone(), interp.Options{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	opt := p.Clone()
	rep, err := core.Optimize(opt, prof, model, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range rep.Decisions {
		fmt.Printf("  %-14s %-12s %s\n", d.Site, d.Action, d.Detail)
	}
	base := simulate(p, model)
	after := simulate(opt, model)
	fmt.Printf("  baseline:  cycles=%-7d IPC=%.3f mispredicts=%d\n", base.Cycles, base.IPC(), base.Mispredicts)
	fmt.Printf("  optimized: cycles=%-7d IPC=%.3f mispredicts=%d annulled=%d\n",
		after.Cycles, after.IPC(), after.Mispredicts, after.Annulled)

	// Show the conditional-move code the R10000 actually executes.
	if guarded := guardedExcerpt(opt); guarded != "" {
		fmt.Printf("  lowered guarded code:\n%s", guarded)
	}
	fmt.Println()
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

// guardedExcerpt returns the lines of the block holding conditional
// moves, if any.
func guardedExcerpt(p *prog.Program) string {
	var b strings.Builder
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			has := false
			for _, in := range blk.Instrs {
				if in.Guarded() {
					has = true
					break
				}
			}
			if has {
				fmt.Fprintf(&b, "    %s:\n", blk.Name)
				for _, in := range blk.Instrs {
					fmt.Fprintf(&b, "      %s\n", in.String())
				}
			}
		}
	}
	return b.String()
}
