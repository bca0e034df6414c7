package fuzz

import (
	"bytes"
	"strings"
	"testing"

	"specguard/internal/analysis"
	"specguard/internal/asm"
	"specguard/internal/machine"
	"specguard/internal/profile"
	"specguard/internal/prog"
	"specguard/internal/xform"
)

// smokeSeeds is the bounded budget `make check` pays; cmd/sgfuzz runs
// far larger sweeps.
const smokeSeeds = 25

// TestGenerateDeterministic pins the generator contract: one seed, one
// program.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Src != b.Src {
			t.Fatalf("seed %d generated two different programs", seed)
		}
	}
	if Generate(1).Src == Generate(2).Src {
		t.Fatal("distinct seeds generated identical programs")
	}
}

// TestGenerateRoundTrips checks that generated programs survive the
// print/parse cycle sgfuzz uses for corpus files.
func TestGenerateRoundTrips(t *testing.T) {
	c := Generate(7)
	reparsed, err := asm.Parse(c.Prog.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if got, want := reparsed.String(), c.Prog.String(); got != want {
		t.Fatalf("print/parse not stable:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestFuzzSmoke is the differential oracle over a bounded seed sweep —
// the net every `make check` run casts over interp, pipeline and the
// transform stack.
func TestFuzzSmoke(t *testing.T) {
	o := NewOracle()
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		c := Generate(seed)
		if err := o.Check(c.Prog); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Src)
		}
	}
}

// TestLeakSoundnessSmoke sweeps the leak-soundness oracle over the
// smoke budget and demands the sweep is not vacuous: with the synthetic
// secret region injected, at least one seed must dynamically flag a
// wrong-path secret access for the subset relation to mean anything.
func TestLeakSoundnessSmoke(t *testing.T) {
	o := NewOracle()
	flagged := 0
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		c := Generate(seed)
		n, err := o.leakSoundness(c.Prog)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Src)
		}
		flagged += n
	}
	if flagged == 0 {
		t.Fatal("no seed produced a dynamic wrong-path secret access: the soundness check never fired")
	}
	t.Logf("%d dynamic wrong-path secret accesses checked against static coverage", flagged)
}

// TestLeakSoundnessAnnotated runs the stage on a hand-written program
// with its own secret region: the loop's taken-biased branch has the
// secret-indexed exit load on its wrong path at distance 1, so the
// dynamic side must flag it on every iteration and the static side must
// cover it.
func TestLeakSoundnessAnnotated(t *testing.T) {
	p := asm.MustParse(`
.region sec 8256 64 secret

func main:
entry:
	li r5, 8256
	lw r6, 0(r5)
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 100, loop
exit:
	lw r9, 0(r6)
	halt
`)
	o := NewOracle()
	n, err := o.leakSoundness(p)
	if err != nil {
		t.Fatalf("leak-soundness failed on a statically covered program: %v", err)
	}
	if n == 0 {
		t.Fatal("the exit-block secret load was never dynamically flagged on the loop branch's wrong path")
	}
}

// TestLeakSoundnessReachesSpecWindow: on a model whose speculative
// window is 88 instructions, the stage walks each wrong path that far,
// so the secret-indexed exit load 70 instructions past the loop branch
// is dynamically flagged and checked against static coverage.
func TestLeakSoundnessReachesSpecWindow(t *testing.T) {
	src := `
.region sec 8256 64 secret

func main:
entry:
	li r5, 8256
	lw r6, 0(r5)
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 100, loop
exit:
` + strings.Repeat("\tadd r2, r2, 1\n", 69) + `	lw r9, 0(r6)
	halt
`
	o := NewOracle()
	o.Model = machine.R10000()
	o.Model.MispredictPenalty, o.Model.ActiveList = 20, 128
	if w := o.Model.SpecWindow(); w != 88 {
		t.Fatalf("SpecWindow = %d, want 88", w)
	}
	n, err := o.leakSoundness(asm.MustParse(src))
	if err != nil {
		t.Fatalf("leak-soundness failed on a statically covered program: %v", err)
	}
	if n == 0 {
		t.Fatal("the exit-block secret load 70 instructions down the loop branch's wrong path was never flagged")
	}
}

// brokenHoist is a deliberately unsound "speculation" pass: it moves
// the first instruction of a hammock side above the branch without
// renaming its destination, so the move is architecturally visible
// whenever the other path runs. The oracle must catch it.
func brokenHoist(p *prog.Program) bool {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.CondBranch() == nil {
				continue
			}
			h := xform.MatchHammock(f, b)
			if h == nil {
				continue
			}
			for _, side := range []*prog.Block{h.Taken, h.Fall} {
				if side == nil || len(side.Body()) == 0 {
					continue
				}
				in := side.Instrs[0]
				side.Instrs = side.Instrs[1:]
				term := b.Instrs[len(b.Instrs)-1]
				b.Instrs = append(b.Instrs[:len(b.Instrs)-1], in, term)
				f.MustRebuildCFG()
				return true
			}
		}
	}
	return false
}

// TestOracleCatchesBrokenTransform mutation-tests the oracle: with an
// unsound hoist injected after every variant's transforms, at least one
// seed inside the smoke budget must produce a state divergence.
func TestOracleCatchesBrokenTransform(t *testing.T) {
	o := NewOracle()
	mutated := false
	o.Mutate = func(name string, p *prog.Program) {
		if brokenHoist(p) {
			mutated = true
		}
	}
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		c := Generate(seed)
		err := o.Check(c.Prog)
		if err == nil {
			continue
		}
		f, ok := err.(*Failure)
		if !ok {
			t.Fatalf("seed %d: non-Failure error: %v", seed, err)
		}
		if strings.HasPrefix(f.Check, "variant-state:") {
			return // caught — the oracle sees through the broken transform
		}
		t.Fatalf("seed %d: broken hoist tripped the wrong oracle: %v", seed, f)
	}
	if !mutated {
		t.Fatal("broken hoist never found a hammock to corrupt")
	}
	t.Fatal("broken hoist was never caught within the smoke budget")
}

// TestStaticOracleCatchesUnsoundHoist mutation-tests the static lint
// stage with a hoist that is deliberately unsound but dynamically
// benign on this input: the branch always takes the hot path, so the
// off-trace block that reads the clobbered register never executes and
// no differential stage can see the bug. Only the analyzer flags it.
func TestStaticOracleCatchesUnsoundHoist(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
	li r1, 5
	li r8, 0
	li r9, 7
	blt r1, 10, hot
other:
	sw r9, 0(r8)
	j end
hot:
	mul r9, r9, 3
	sw r9, 8(r8)
	j end
end:
	halt
`)
	o := NewOracle()
	o.Variants = []Variant{{
		Name: "bad-hoist",
		Apply: func(q *prog.Program, _ *profile.Profile, _ *machine.Model) error {
			f := q.EntryFunc()
			entry, hot := f.Block("entry"), f.Block("hot")
			in := hot.Instrs[0] // mul r9, r9, 3
			in.Speculated = true
			hot.Instrs = hot.Instrs[1:]
			term := entry.Instrs[len(entry.Instrs)-1]
			entry.Instrs = append(entry.Instrs[:len(entry.Instrs)-1], in, term)
			f.MustRebuildCFG()
			return nil
		},
	}}
	err := o.Check(p)
	f, ok := err.(*Failure)
	if !ok {
		t.Fatalf("want a static-lint failure, got %v", err)
	}
	if f.Check != "static-lint:bad-hoist" || !strings.Contains(f.Msg, analysis.RuleSpecLive) {
		t.Fatalf("unsound hoist tripped the wrong oracle: %v", f)
	}
}

// TestStaticOracleCatchesOverlappingSplit mutation-tests the other
// static-only obligation: widening a phase predicate of a split branch
// so two dispatch intervals overlap. The chain dispatches first-match,
// so the mutated program computes exactly what the original does —
// every dynamic oracle stays green — but the phase contract is broken
// and the analyzer alone reports it.
func TestStaticOracleCatchesOverlappingSplit(t *testing.T) {
	p := asm.MustParse(`
func main:
entry:
	li r31, -1
	li r1, 0
	li r8, 0
loop:
	add r31, r31, 1
	plt p1, r31, 50
	bp p1, v1
d2:
	pge p2, r31, 50
	plt p3, r31, 100
	pand p4, p2, p3
	bp p4, v2
res:
	j back
v1:
	add r1, r1, 1
	j back
v2:
	add r1, r1, 2
	j back
back:
	blt r31, 99, loop
fini:
	sw r1, 0(r8)
	halt
`)
	o := NewOracle()
	o.Variants = []Variant{{
		Name: "bad-split",
		Apply: func(q *prog.Program, _ *profile.Profile, _ *machine.Model) error {
			// [50, 100) -> [40, 100): overlaps phase one's [-inf, 50),
			// but d2 is only ever reached with r31 >= 50, so dynamic
			// behaviour is unchanged.
			q.EntryFunc().Block("d2").Instrs[0].Imm = 40
			return nil
		},
	}}
	err := o.Check(p)
	f, ok := err.(*Failure)
	if !ok {
		t.Fatalf("want a static-lint failure, got %v", err)
	}
	if f.Check != "static-lint:bad-split" || !strings.Contains(f.Msg, analysis.RuleSplitOverlap) {
		t.Fatalf("overlapping split tripped the wrong oracle: %v", f)
	}
}

// TestShrinkPreservesFailure drives the shrinker with a variant that
// drops the program's first store — a planted miscompile — and checks
// the reduction still fails the same check and got no larger.
func TestShrinkPreservesFailure(t *testing.T) {
	o := NewOracle()
	o.Variants = append(o.Variants, Variant{
		Name: "drop-store",
		Apply: func(p *prog.Program, _ *profile.Profile, _ *machine.Model) error {
			f := p.EntryFunc()
			for _, b := range f.Blocks {
				for i, in := range b.Body() {
					if in.Op.String() == "sw" {
						b.Instrs = append(b.Instrs[:i:i], b.Instrs[i+1:]...)
						f.MustRebuildCFG()
						return nil
					}
				}
			}
			return nil
		},
	})

	var failing *prog.Program
	var check string
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		c := Generate(seed)
		if err := o.Check(c.Prog); err != nil {
			f := err.(*Failure)
			if f.Check != "variant-state:drop-store" {
				t.Fatalf("seed %d: planted bug tripped the wrong oracle: %v", seed, f)
			}
			failing, check = c.Prog, f.Check
			break
		}
	}
	if failing == nil {
		t.Fatal("planted store-dropping bug never caught")
	}

	shrunk := Shrink(o, failing, check, 200)
	if shrunk.NumInstrs() > failing.NumInstrs() {
		t.Fatalf("shrink grew the program: %d -> %d instrs", failing.NumInstrs(), shrunk.NumInstrs())
	}
	err := o.Check(shrunk)
	f, ok := err.(*Failure)
	if !ok || f.Check != check {
		t.Fatalf("shrunk program no longer fails %s: %v", check, err)
	}
	t.Logf("shrunk %d -> %d instructions", failing.NumInstrs(), shrunk.NumInstrs())
}

// FuzzDifferential is the native fuzzing entry point: any seed must
// pass the whole battery.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 10; seed++ {
		f.Add(seed)
	}
	o := NewOracle()
	f.Fuzz(func(t *testing.T, seed int64) {
		c := Generate(seed)
		if err := o.Check(c.Prog); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Src)
		}
	})
}

// FuzzProfileLoad hammers the profile deserializer with arbitrary
// bytes: it must never panic, and anything it accepts must re-save and
// re-load to the same profile (no phantom state smuggled through).
func FuzzProfileLoad(f *testing.F) {
	var seedBuf bytes.Buffer
	p := profile.NewProfile()
	p.Record("main.loop", true)
	p.Record("main.loop", false)
	if err := p.Save(&seedBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"version":1,"sites":{"a":{"count":3,"bits":"/w=="}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p1, err := profile.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out1 bytes.Buffer
		if err := p1.Save(&out1); err != nil {
			t.Fatalf("accepted profile fails to save: %v", err)
		}
		p2, err := profile.Load(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("saved profile fails to load: %v", err)
		}
		var out2 bytes.Buffer
		if err := p2.Save(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("save/load not a fixpoint:\n%s\n%s", out1.Bytes(), out2.Bytes())
		}
	})
}
