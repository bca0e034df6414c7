package bench

import (
	"context"
	"strings"
	"testing"

	"specguard/internal/analysis"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// TestVictimLeaks is the headline dynamic result: the unprotected
// victim leaks speculatively (and only speculatively) under 2-bit
// prediction; perfect prediction and guarded execution each close the
// channel completely.
func TestVictimLeaks(t *testing.T) {
	r := NewRunner()

	res, err := r.RunLeak(context.Background(), Victim(), SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SecretAccesses != 0 {
		t.Errorf("victim/2-bit: %d committed secret accesses, want 0 (the committed stream is bounds-checked)",
			res.Stats.SecretAccesses)
	}
	if res.Stats.SpecSecretAccesses == 0 {
		t.Error("victim/2-bit: no wrong-path secret accesses; the victim does not leak")
	}

	res, err = r.RunLeak(context.Background(), Victim(), SchemePerfect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpecSecretAccesses != 0 {
		t.Errorf("victim/perfect: %d wrong-path secret accesses, want 0 (no mispredicts, no window)",
			res.Stats.SpecSecretAccesses)
	}

	res, err = r.RunLeak(context.Background(), VictimGuarded(), SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpecSecretAccesses != 0 {
		t.Errorf("victim-guarded/2-bit: %d wrong-path secret accesses, want 0 (guards annul the wrong path)",
			res.Stats.SpecSecretAccesses)
	}
	if res.Stats.SecretAccesses != 0 {
		t.Errorf("victim-guarded/2-bit: %d committed secret accesses, want 0", res.Stats.SecretAccesses)
	}
}

// TestVictimStaticCoverage pins the static side of the cross-check: the
// lint rules flag the victim (soundness demands st-spec > 0 wherever
// dyn-spec > 0) and stay quiet on the annotated paper kernels.
func TestVictimStaticCoverage(t *testing.T) {
	r := NewRunner()
	res, err := r.RunLeak(context.Background(), Victim(), SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticSpec == 0 {
		t.Error("victim: dynamic wrong-path accesses but no spec-secret-load findings (soundness hole)")
	}

	for _, w := range All() {
		a := analysis.Analyze(w.Build(), analysis.Options{})
		if a.Leaks() != 0 {
			t.Errorf("%s: %d leak finding(s) on a public-only kernel", w.Name, a.Leaks())
		}
	}
}

// TestLeakTable exercises the full ablation sweep and its rendering.
func TestLeakTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full leak ablation")
	}
	r := NewRunner()
	results, err := r.RunLeakAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d cells, want 6 (2 victims × 3 schemes)", len(results))
	}
	tbl := FormatLeakTable(results)
	for _, want := range []string{"victim", "victim-guarded", "2-bitBP", "PerfectBP", "dyn-spec"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	// Guarded cells leak nothing dynamically under any scheme.
	for _, res := range results {
		if res.Workload == "victim-guarded" && res.Stats.SpecSecretAccesses != 0 {
			t.Errorf("victim-guarded/%s: %d wrong-path secret accesses", res.Scheme, res.Stats.SpecSecretAccesses)
		}
	}
}

// probeVictim returns a kernel whose one conditional branch mispredicts
// once under 2-bit prediction and whose wrong path holds a secret-
// indexed load at each of the given distances past it, and only there.
// The entry loads a secret word through a public address and derives a
// probe address from it; the branch is not taken, but a fresh 2-bit
// counter predicts taken, so the wrong path is the taken target: a
// block of length instructions, each a probe load through the tainted
// address at a listed distance (1 = the block's first) and a public
// add elsewhere. The committed path only halts.
func probeVictim(dists []int, length int) Workload {
	const (
		arr    = 1 << 16 // 64-word public array the probes index
		secret = 1 << 17 // one secret word
	)
	probe := make([]bool, length+1)
	for _, d := range dists {
		probe[d] = true
	}
	build := func() *prog.Program {
		r := isa.R
		b := prog.NewBuilder("main")
		b.Block("entry").
			Li(r(15), secret).
			Load(isa.Lw, r(5), r(15), 0).
			Li(r(9), arr).
			OpI(isa.And, r(16), r(5), 63).
			OpI(isa.Sll, r(16), r(16), 3).
			Op3(isa.Add, r(16), r(16), r(9)).
			Li(r(20), 1).
			BranchI(isa.Beq, r(20), 0, "body")
		b.Block("exit").Halt()
		body := b.Block("body")
		for d := 1; d <= length; d++ {
			if probe[d] {
				body.Load(isa.Lw, r(6), r(16), 0)
			} else {
				body.OpI(isa.Add, r(17), r(17), 1)
			}
		}
		body.Halt()
		p := prog.NewProgram()
		p.AddFunc(b.Func())
		p.MustAddRegion(prog.Region{Name: "arr", Base: arr, Len: 64 * 8})             //sgtaint:public
		p.MustAddRegion(prog.Region{Name: "key", Base: secret, Len: 8, Secret: true}) //sgtaint:secret
		return p
	}
	return Workload{Name: "probe-victim", Build: build, Init: func(m interp.Memory) error {
		return m.WriteWord(secret, 0x2a)
	}}
}

// TestLeakCountReachesSpecWindow: a wrong-path secret load 70
// instructions past a mispredicted branch is counted on a model whose
// speculative window reaches it (4 × (1+20+1) = 88), which the default
// 64-instruction wrong-path walk would not see, and loads past the
// window are not.
func TestLeakCountReachesSpecWindow(t *testing.T) {
	r := NewRunner()
	r.Model.MispredictPenalty = 20
	r.Model.ActiveList = 128
	if err := r.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	if w := r.Model.SpecWindow(); w != 88 {
		t.Fatalf("SpecWindow = %d, want 88", w)
	}
	res, err := r.RunLeak(context.Background(), probeVictim([]int{3, 65, 70, 88, 89, 100}, 100), SchemeTwoBit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mispredicts != 1 || res.Stats.SpecSecretAccesses != 4 || res.StaticSpec != 4 {
		t.Errorf("%d mispredicts, %d wrong-path secret accesses, %d spec-secret-load sites; want 1, 4 and 4 (distances 3, 65, 70 and 88)",
			res.Stats.Mispredicts, res.Stats.SpecSecretAccesses, res.StaticSpec)
	}
}
