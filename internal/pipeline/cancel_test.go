package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

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

// TestRunYieldsAtPoll: a lane yields its processor at a poll, every
// 4096 simulated cycles, once a millisecond has passed since its last
// yield or the start of its run, with or without a Context. The clock
// is faked and read once when the run starts and once per poll: one
// that advances a millisecond per reading yields at every poll (without
// cycle skips every cycle is polled, so the count follows from the
// cycle count), and a frozen one never yields.
func TestRunYieldsAtPoll(t *testing.T) {
	origYield, origClock := yield, clock
	defer func() { yield, clock = origYield, origClock }()
	var n int64
	yield = func() { n++ }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tick := range []time.Duration{yieldEvery, 0} {
		for _, c := range []context.Context{nil, ctx} {
			now := 5 * time.Second
			clock = func() time.Duration { now += tick; return now }
			n = 0
			st := simulate(t, allocKernel, twoBit(), func(cfg *Config) { cfg.NoCycleSkip, cfg.Context = true, c })
			want := (st.Cycles-1)/(cancelCheckMask+1) + 1 // one per 4096 cycles
			if tick == 0 {
				want = 0
			}
			if st.Cycles < 4*(cancelCheckMask+1) || n != want {
				t.Errorf("clock tick %v, Context %v: %d yields over %d cycles, want %d", tick, c != nil, n, st.Cycles, want)
			}
		}
	}
}
