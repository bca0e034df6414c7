package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"specguard/internal/analysis"
	"specguard/internal/asm"
	"specguard/internal/bench"
	"specguard/internal/core"
	"specguard/internal/fuzz"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/profile"
	"specguard/internal/prog"
)

// ablations are sgbench's seven ablation configurations.
var ablations = []core.Options{
	{},
	{DisableLikely: true},
	{DisableGuarding: true},
	{DisableSplitting: true},
	{DisableSpeculation: true},
	{DisableGuarding: true, DisableSplitting: true, DisableSpeculation: true},
	{DisableLikely: true, DisableSplitting: true, DisableSpeculation: true},
}

// secretRegion is the fuzz leak stage's injected region, so the taint
// pass runs over generated programs too.
var secretRegion = prog.Region{Name: "secret", Base: fuzz.DataBase + 1024, Len: 1024, Secret: true}

// edgeCases packs the shapes the generated corpus rarely reaches: an
// unreachable block with no predecessors holding copies, a self-loop,
// a guarded copy and guarded defs, a switch, a call whose callee
// writes a copied register, and a secret region read through a
// constant and through a loaded address.
const edgeCases = `
.region sec 8256 64 secret
func main:
entry:
	li r5, 8256
	mov r2, r5
	li r1, 0
	j loop
dead:
	mov r4, r2
	mov r6, r4
	lw r7, 0(r6)
loop:
	add r1, r1, 1
	peq p1, r1, 3
	(p1) mov r4, r2
	(p1) lw r8, 0(r5)
	blt r1, 5, loop
disp:
	and r3, r1, 1
	switch r3, a, b
a:
	call helper
ret:
	mov r9, r2
	j fin
b:
	lw r10, 0(r8)
	mov r2, r10
fin:
	beq r2, 0, out
more:
	lw r11, 0(r2)
out:
	halt

func helper:
h0:
	li r2, 7
	lw r12, 0(r5)
	ret
`

// TestSolverMatchesReference holds the audit's block-indexed dataflow
// solutions and whole Analyze Results to the map-based reference
// solver (solver_test.go) on every function of: the four kernels and
// the two leak workloads, each as built and as rewritten under its
// default options, sgbench's ablations and unlowered; edgeCases and
// examples/asm/*.s;
// and a fixed-seed batch of generated fuzz programs, each as generated,
// with a secret region and as rewritten. Every program is audited under
// both modes, machine mode also with speculative loads allowed.
func TestSolverMatchesReference(t *testing.T) {
	modes := []analysis.Options{
		{Mode: analysis.ModeIR},
		{Mode: analysis.ModeMachine},
		{Mode: analysis.ModeMachine, AllowSpeculativeLoads: true},
	}
	model := machine.R10000()
	checked := 0
	check := func(name string, p *prog.Program) {
		t.Helper()
		checked++
		for _, o := range modes {
			if err := analysis.CheckAgainstReference(p, o); err != nil {
				t.Errorf("%s (%s mode, speculative loads %v): %v", name, o.Mode, o.AllowSpeculativeLoads, err)
			}
		}
	}
	rewrite := func(name string, p *prog.Program, prof *profile.Profile, opts []core.Options) {
		t.Helper()
		for i, o := range opts {
			q := p.Clone()
			if _, err := core.Optimize(q, prof, model, o); err != nil {
				continue // an audit failure is the optimizer tests' business
			}
			check(fmt.Sprintf("%s/opts%d", name, i), q)
		}
	}

	r := bench.NewRunner()
	for _, w := range append(bench.All(), bench.LeakWorkloads()...) {
		p := w.Build()
		check(w.Name, p)
		prof, err := r.ProfileOf(w)
		if err != nil {
			t.Fatal(err)
		}
		unlowered := w.Opt
		unlowered.SkipLower = true
		rewrite(w.Name, p, prof, append([]core.Options{w.Opt, unlowered}, ablations...))
	}

	check("edge cases", asm.MustParse(edgeCases))
	files, err := filepath.Glob("../../examples/asm/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.Base(f), asm.MustParse(string(src)))
	}

	for seed := range int64(100) {
		c := fuzz.Generate(seed)
		name := fmt.Sprintf("fuzz seed %d", seed)
		check(name, c.Prog)
		if q := c.Prog.Clone(); q.AddRegion(secretRegion) == nil {
			check(name+" with a secret region", q)
		}
		prof, _, err := profile.Collect(c.Prog, interp.Options{MemBytes: fuzz.MemBytes, MaxSteps: 2_000_000}, nil)
		if err != nil {
			continue
		}
		rewrite(name, c.Prog, prof, []core.Options{{}, {SkipLower: true}, {SpeculateLoads: true}})
	}
	t.Logf("%d programs checked", checked)
}
