package pipeline

import (
	"context"
	"reflect"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/predict"
	"specguard/internal/prog"
)

// batchKernel exercises every event shape the shared decode window has
// to pre-chew: guarded (possibly annulled) ALU and memory ops, loads
// and stores with real disambiguation traffic, conditional and likely
// branches, unconditional jumps, and call/return indirection.
const batchKernel = `
func main:
entry:
	li r1, 0
	li r5, 4096
loop:
	and r2, r1, 15
	sll r3, r2, 3
	add r3, r3, r5
	lw r4, 0(r3)
	add r4, r4, 1
	peq p1, r2, 0
	(p1) sw r4, 0(r3)
	(!p1) add r6, r6, 1
	(p1) lw r7, 8(r3)
	call helper
after:
	beq r2, 7, skip
body:
	add r8, r8, 2
	j next
skip:
	sub r8, r8, 1
	bpl p1, next
likely_nt:
	add r8, r8, 4
next:
	add r1, r1, 1
	blt r1, 4000, loop
exit:
	halt

func helper:
h0:
	add r9, r9, 1
	ret
`

func batchProgram(t testing.TB) *prog.Program {
	t.Helper()
	return asm.MustParse(batchKernel)
}

// freshSource returns a predecoded machine at the entry of p.
func freshSource(t testing.TB, p *prog.Program) *interp.Machine {
	t.Helper()
	code, err := interp.Predecode(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return code.NewMachine(interp.Options{})
}

// batchCases are the mixed lane configurations the lockstep tests run:
// different table sizes (including shared-backing lanes from
// NewTwoBitLanes), a perfect lane, a duplicate config, an ideal-dcache
// lane and a lane whose table has its own backing array.
func batchCases(selfCheck bool) []Config {
	model := machine.R10000()
	preds := predict.NewTwoBitLanes([]int{512, 64, 512, 16})
	cfgs := []Config{
		{Model: model, Predictor: preds[0], SelfCheck: selfCheck},
		{Model: model, Predictor: preds[1], SelfCheck: selfCheck},
		{Model: model, Predictor: predict.NewPerfect(), SelfCheck: selfCheck},
		{Model: model, Predictor: preds[2], SelfCheck: selfCheck}, // duplicate of lane 0
		{Model: model, Predictor: preds[3], SelfCheck: selfCheck, DisableDCache: true},
		{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: selfCheck},
	}
	return cfgs
}

// singleConfig rebuilds lane i of batchCases with a fresh predictor, so
// the reference run does not touch the batch lanes' shared tables.
func singleConfigs(selfCheck bool) []Config {
	model := machine.R10000()
	return []Config{
		{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: selfCheck},
		{Model: model, Predictor: predict.NewTwoBit(64), SelfCheck: selfCheck},
		{Model: model, Predictor: predict.NewPerfect(), SelfCheck: selfCheck},
		{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: selfCheck},
		{Model: model, Predictor: predict.NewTwoBit(16), SelfCheck: selfCheck, DisableDCache: true},
		{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: selfCheck},
	}
}

// TestBatchMatchesSingle pins lane isolation: every lane of a
// mixed-config batch must produce Stats byte-identical to a one-lane Run
// of the same Config over the same stream. SelfCheck is on throughout,
// so the per-cycle invariant audit (including the lane-isolation
// checks) and the window's refill audit run. `make check` runs this
// under -race.
func TestBatchMatchesSingle(t *testing.T) {
	p := batchProgram(t)

	cfgs := batchCases(true)
	if len(cfgs) < 2 {
		t.Fatal("batch golden test needs ≥2 lanes")
	}
	got, err := RunLanes(cfgs, freshSource(t, p))
	if err != nil {
		t.Fatal(err)
	}

	for i, cfg := range singleConfigs(true) {
		pipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.Run(freshSource(t, p))
		if err != nil {
			t.Fatalf("single lane %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %d diverged from single-lane run:\nbatch:  %+v\nsingle: %+v", i, got[i], want)
		}
	}

	// Duplicate configs must agree exactly (lane isolation: lane 3
	// shares nothing with lane 0 but its Config shape).
	if !reflect.DeepEqual(got[0], got[3]) {
		t.Errorf("duplicate-config lanes diverged:\nlane 0: %+v\nlane 3: %+v", got[0], got[3])
	}
}

// TestOneLaneBatchPrivateICache: a one-lane drain keeps its private
// icache — its window builds no shared one — while a two-lane drain
// builds one that both lanes read; either way every lane's Stats equal
// a one-lane Run's. `make check` runs this under -race.
func TestOneLaneBatchPrivateICache(t *testing.T) {
	p := batchProgram(t)
	cfgs := func(n int) []Config {
		out := make([]Config, n)
		for i := range out {
			out[i] = Config{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), SelfCheck: true}
		}
		return out
	}
	pipe, err := New(cfgs(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipe.Run(freshSource(t, p))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2} {
		windowIC, shared, err := StartICache(cfgs(n), freshSource(t, p))
		if err != nil {
			t.Fatal(err)
		}
		if windowIC != (n > 1) {
			t.Errorf("%d lanes: window icache built = %v, want %v", n, windowIC, n > 1)
		}
		for i, sh := range shared {
			if sh != (n > 1) {
				t.Errorf("%d lanes: lane %d reads the shared icache = %v, want %v", n, i, sh, n > 1)
			}
		}
		got, err := RunLanes(cfgs(n), freshSource(t, p))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%d lanes: lane %d diverged from a one-lane Run:\nbatch: %+v\nrun:   %+v", n, i, got[i], want)
			}
		}
	}
}

// TestBatchCancellation verifies the cooperative Context poll works on
// the batched path.
func TestBatchCancellation(t *testing.T) {
	p := batchProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunLanes([]Config{
		{Model: machine.R10000(), Predictor: predict.NewTwoBit(512), Context: ctx},
		{Model: machine.R10000(), Predictor: predict.NewPerfect(), Context: ctx},
	}, freshSource(t, p))
	if err == nil {
		t.Fatal("cancelled batch run did not fail")
	}
}

// TestBatchEmpty pins the validation error: a drain with no lanes would
// never end its first round.
func TestBatchEmpty(t *testing.T) {
	if _, err := RunLanes(nil, freshSource(t, batchProgram(t))); err == nil {
		t.Fatal("RunLanes(nil) did not fail")
	}
}
