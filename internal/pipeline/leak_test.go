package pipeline

import (
	"reflect"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/predict"
)

// leakKernel is a Spectre-shaped victim: the loop branch trains toward
// taken, and the wrong path of every taken occurrence is the exit block,
// whose first instruction is a load indexed by a secret-derived value.
// A mispredicted loop branch therefore exposes one wrong-path secret
// access at speculative distance 1.
const leakKernel = `
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
`

func leakSource(t testing.TB) *interp.TaintMachine {
	t.Helper()
	p := asm.MustParse(leakKernel)
	code, err := interp.Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code.NewTaintMachine(interp.Options{}, 64)
}

// TestPipelineLeakCounts pins the dynamic flagging semantics: the one
// committed secret-indexed load always counts, and wrong-path secret
// accesses count exactly when the branch shielding them mispredicts —
// so a perfect predictor reports zero.
func TestPipelineLeakCounts(t *testing.T) {
	model := machine.R10000()

	pipe, err := New(Config{Model: model, Predictor: predict.NewTwoBit(512), TrackLeaks: true, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipe.Run(leakSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.SecretAccesses != 1 {
		t.Errorf("SecretAccesses = %d, want 1", st.SecretAccesses)
	}
	if st.SpecSecretAccesses < 1 {
		t.Errorf("SpecSecretAccesses = %d, want ≥1 under a 2-bit predictor", st.SpecSecretAccesses)
	}

	pipe, err = New(Config{Model: model, Predictor: predict.NewPerfect(), TrackLeaks: true, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err = pipe.Run(leakSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.SecretAccesses != 1 {
		t.Errorf("perfect: SecretAccesses = %d, want 1", st.SecretAccesses)
	}
	if st.SpecSecretAccesses != 0 {
		t.Errorf("perfect: SpecSecretAccesses = %d, want 0 (no mispredicts, no window)", st.SpecSecretAccesses)
	}
}

// TestBatchLeakMatchesSingle pins exact leak-count equality between N
// lanes and one: every lane of a mixed-predictor leak batch must
// produce Stats (leak counters included) byte-identical to a one-lane
// Run of the same Config.
func TestBatchLeakMatchesSingle(t *testing.T) {
	model := machine.R10000()
	mk := func() []Config {
		return []Config{
			{Model: model, Predictor: predict.NewTwoBit(512), TrackLeaks: true, SelfCheck: true},
			{Model: model, Predictor: predict.NewTwoBit(16), TrackLeaks: true, SelfCheck: true},
			{Model: model, Predictor: predict.NewPerfect(), TrackLeaks: true, SelfCheck: true},
		}
	}

	got, err := RunLanes(mk(), leakSource(t))
	if err != nil {
		t.Fatal(err)
	}

	anySpec := false
	for i, cfg := range mk() {
		pipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.Run(leakSource(t))
		if err != nil {
			t.Fatalf("single lane %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %d diverged from single-lane run:\nbatch:  %+v\nsingle: %+v", i, got[i], want)
		}
		anySpec = anySpec || want.SpecSecretAccesses > 0
	}
	if !anySpec {
		t.Error("no lane observed a wrong-path secret access; the equality check is vacuous")
	}
}

// TestTrackLeaksOffNeutral pins that leak tracking is a pure overlay:
// with TrackLeaks off, a taint-tracking source produces Stats identical
// to a plain machine source, with both counters zero.
func TestTrackLeaksOffNeutral(t *testing.T) {
	model := machine.R10000()
	p := asm.MustParse(leakKernel)
	code, err := interp.Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := New(Config{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	viaTaint, err := pipe.Run(code.NewTaintMachine(interp.Options{}, 64))
	if err != nil {
		t.Fatal(err)
	}

	pipe, err = New(Config{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	viaMachine, err := pipe.Run(code.NewMachine(interp.Options{}))
	if err != nil {
		t.Fatal(err)
	}

	if viaTaint.SecretAccesses != 0 || viaTaint.SpecSecretAccesses != 0 {
		t.Errorf("TrackLeaks off but counters set: %d/%d",
			viaTaint.SecretAccesses, viaTaint.SpecSecretAccesses)
	}
	if !reflect.DeepEqual(viaTaint, viaMachine) {
		t.Errorf("taint source perturbed timing with TrackLeaks off:\ntaint:   %+v\nmachine: %+v",
			viaTaint, viaMachine)
	}
}
