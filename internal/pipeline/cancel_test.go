package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/machine"
)

const cancelLoop = `
func main:
entry:
	li r1, 0
loop:
	add r1, r1, 1
	blt r1, 2000, loop
exit:
	halt
`

// TestRunCancelled: an already-cancelled Context aborts Run at its
// first poll (cycle 0) with the context's error in the chain.
func TestRunCancelled(t *testing.T) {
	p := asm.MustParse(cancelLoop)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pipe, err := New(Config{Model: machine.R10000(), Predictor: twoBit(), Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(freshSource(t, p)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled Context = %v, want context.Canceled in the chain", err)
	}
}

// TestRunStatsUnchangedByContext pins the bit-identical guarantee: a
// run under a live (never-cancelled) Context produces exactly the
// Stats of a context-free run.
func TestRunStatsUnchangedByContext(t *testing.T) {
	without := simulate(t, cancelLoop, twoBit(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	with := simulate(t, cancelLoop, twoBit(), func(cfg *Config) { cfg.Context = ctx })
	if !reflect.DeepEqual(with, without) {
		t.Errorf("Context changed Stats:\nwith:    %+v\nwithout: %+v", with, without)
	}
}

// TestRunYieldsAtPoll: a lane yields its processor at every poll, every
// 4096 simulated cycles, with or without a Context, so a simulation
// cannot hold a processor until async preemption. Without cycle skips
// every cycle is polled, so the count follows from the cycle count.
func TestRunYieldsAtPoll(t *testing.T) {
	orig := yield
	defer func() { yield = orig }()
	var n int64
	yield = func() { n++ }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []context.Context{nil, ctx} {
		n = 0
		st := simulate(t, allocKernel, twoBit(), func(cfg *Config) { cfg.NoCycleSkip, cfg.Context = true, c })
		if want := (st.Cycles-1)/(cancelCheckMask+1) + 1; st.Cycles < 4*(cancelCheckMask+1) || n != want {
			t.Errorf("Context %v: %d yields over %d cycles, want %d (one per 4096 cycles)", c != nil, n, st.Cycles, want)
		}
	}
}
