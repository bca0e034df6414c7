package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/machine"
	"specguard/internal/predict"
	"specguard/internal/prog"
)

// fpChainKernel is a long serial FP-divide chain: each fdiv waits
// FPDivLat cycles on its predecessor, so once dispatch saturates the
// machine spends most cycles fully quiescent — the crafted
// long-latency program of the quiescence test plan.
func fpChainKernel(n int) string {
	var sb strings.Builder
	sb.WriteString("func main:\nB0:\n\tli r1, 1\n")
	for i := 0; i < n; i++ {
		sb.WriteString("\tfdiv f1, f1, f2\n")
	}
	sb.WriteString("\thalt\n")
	return sb.String()
}

// runSkipPair runs the same program twice — fast-forward enabled and
// NoCycleSkip — under SelfCheck (so every jump passes the
// checkFastForward audit) and returns both Stats and the skip-enabled
// run's counters. The NoCycleSkip run must report zero skips.
func runSkipPair(t *testing.T, p *prog.Program, mutate func(*Config)) (skip, noskip Stats, sk SkipStats) {
	t.Helper()
	run := func(off bool) (Stats, SkipStats) {
		m, err := interp.New(p, nil, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Model: machine.R10000(), Predictor: twoBit(), SelfCheck: true, NoCycleSkip: off}
		if mutate != nil {
			mutate(&cfg)
		}
		pipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := pipe.Run(NewInterpSource(m))
		if err != nil {
			t.Fatal(err)
		}
		return st, pipe.SkipStats()
	}
	skip, sk = run(false)
	var off SkipStats
	noskip, off = run(true)
	if off != (SkipStats{}) {
		t.Fatalf("NoCycleSkip run still fast-forwarded: %+v", off)
	}
	return skip, noskip, sk
}

// TestSkipLongLatencyFP is the crafted long-latency program of the
// quiescence plan: a serial fdiv chain must fast-forward through a
// large share of its cycles, under SelfCheck, with Stats byte-equal to
// the cycle-by-cycle run. bench-smoke runs this test as its
// SkippedCycles > 0 assertion on a latency-bound workload.
func TestSkipLongLatencyFP(t *testing.T) {
	p := asm.MustParse(fpChainKernel(400))
	skip, noskip, sk := runSkipPair(t, p, nil)
	if !reflect.DeepEqual(skip, noskip) {
		t.Errorf("stats diverged with skipping on:\nskip:   %+v\nnoskip: %+v", skip, noskip)
	}
	if sk.SkippedCycles == 0 || sk.FastForwards == 0 {
		t.Fatalf("latency-bound chain did not fast-forward: %+v", sk)
	}
	// The chain serializes on FPDivLat, so the dead-cycle share must be
	// substantial — a weak predicate (e.g. one that never detects
	// dispatch-blocked quiescence) fails here even though stats match.
	if rate := float64(sk.SkippedCycles) / float64(skip.Cycles); rate < 0.3 {
		t.Errorf("skip rate %.3f too low for a serial fdiv chain (skipped %d of %d cycles)",
			rate, sk.SkippedCycles, skip.Cycles)
	}
}

// TestSkipNeutralAcrossFixtures sweeps skip-vs-noskip Stats equality
// over contrasting machine shapes: branchy code, rename starvation,
// a throttled front end (the paper's variable fetch-rate model, where
// quiescent stretches are longest) and leak tracking over a plain
// source.
func TestSkipNeutralAcrossFixtures(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		mutate func(*Config)
	}{
		{"alternating", alternatingLoop, nil},
		{"fp-chain-icache", fpChainKernel(200), func(c *Config) { c.DisableICache = true }},
		{"rename-starved", fpChainKernel(100), func(c *Config) {
			m := machine.R10000()
			m.RenameRegs = 2
			c.Model = m
		}},
		{"throttled-fetch", alternatingLoop, func(c *Config) {
			m := machine.R10000()
			m.ThrottledFetchWidth = 1
			c.Model = m
		}},
		{"track-leaks", fpChainKernel(150), func(c *Config) { c.TrackLeaks = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skip, noskip, _ := runSkipPair(t, asm.MustParse(tc.src), tc.mutate)
			if !reflect.DeepEqual(skip, noskip) {
				t.Errorf("stats diverged:\nskip:   %+v\nnoskip: %+v", skip, noskip)
			}
		})
	}
}

// TestSkipWatchdogDeadlockIdentical pins the watchdog interaction: with
// a divide latency stretched past the watchdog threshold the machine
// saturates, goes quiescent, and the next wheel event lies beyond the
// no-commit deadline — the fast-forward must land exactly on the
// deadline and fail with the byte-identical error (same deadline
// cycle, same in-flight counts) the cycle-by-cycle run grinds its way
// to, rather than skipping past it.
func TestSkipWatchdogDeadlockIdentical(t *testing.T) {
	p := asm.MustParse(fpChainKernel(400))
	run := func(off bool) (Stats, SkipStats, error) {
		m, err := interp.New(p, nil, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		slow := machine.R10000()
		slow.FPDivLat = 40
		pipe, err := New(Config{Model: slow, Predictor: twoBit(),
			SelfCheck: true, Watchdog: 20, NoCycleSkip: off})
		if err != nil {
			t.Fatal(err)
		}
		st, err := pipe.Run(NewInterpSource(m))
		return st, pipe.SkipStats(), err
	}
	_, sk, errSkip := run(false)
	_, _, errNoSkip := run(true)
	if errNoSkip == nil {
		t.Fatal("watchdog below the divide latency did not fire on the cycle-by-cycle run")
	}
	if errSkip == nil {
		t.Fatal("skipping masked the watchdog deadlock")
	}
	if errSkip.Error() != errNoSkip.Error() {
		t.Errorf("watchdog errors differ:\nskip:   %v\nnoskip: %v", errSkip, errNoSkip)
	}
	if sk.FastForwards == 0 {
		t.Error("deadlock path never fast-forwarded (the jump-to-deadline case is untested)")
	}
	// The converse regression — skipping must not falsely trigger the
	// watchdog on a program that commits — is pinned by
	// TestWatchdogReportsDeadlock, which now runs with skipping enabled
	// by default.
}

// TestSkipBatchMatchesNoSkip runs a mixed-config batch both ways over a
// latency-bound trace: every lane's Stats must be byte-identical,
// parked-lane fast-forwarding must engage, and the per-lane skip
// counters must match one-lane Runs of the same configs (the in-lane
// jump is the same code path, so the counters — not just the Stats —
// agree across drivers).
func TestSkipBatchMatchesNoSkip(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func main:\nB0:\n\tli r1, 0\nloop:\n")
	sb.WriteString("\tfdiv f1, f1, f2\n\tfdiv f2, f2, f1\n")
	sb.WriteString("\tand r2, r1, 3\n\tbeq r2, 0, skip\nthen:\n\tadd r3, r3, 1\nskip:\n")
	sb.WriteString("\tadd r1, r1, 1\n\tblt r1, 500, loop\nexit:\n\thalt\n")
	p := asm.MustParse(sb.String())

	lanes := func(off bool) []Config {
		model := machine.R10000()
		throttled := machine.R10000()
		throttled.ThrottledFetchWidth = 1
		return []Config{
			{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: true, NoCycleSkip: off},
			{Model: model, Predictor: predict.NewPerfect(), SelfCheck: true, NoCycleSkip: off},
			{Model: throttled, Predictor: predict.NewTwoBit(64), SelfCheck: true, NoCycleSkip: off},
			{Model: model, Predictor: predict.NewTwoBit(512), SelfCheck: true, NoCycleSkip: off, DisableDCache: true},
		}
	}
	runBatch := func(off bool) ([]Stats, *Batch) {
		b, err := NewBatch(lanes(off))
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Run(freshSource(t, p))
		if err != nil {
			t.Fatal(err)
		}
		return got, b
	}
	got, b := runBatch(false)
	want, _ := runBatch(true)
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("lane %d diverged with skipping on:\nskip:   %+v\nnoskip: %+v", i, got[i], want[i])
		}
	}
	if sk := b.SkipStats(); sk.SkippedCycles == 0 {
		t.Errorf("batched lanes never fast-forwarded on a latency-bound trace: %+v", sk)
	}

	// Driver parity: each batch lane's skip counters equal the
	// single-lane run's for the same config.
	for i, cfg := range lanes(false) {
		pipe, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := pipe.Run(freshSource(t, p))
		if err != nil {
			t.Fatalf("single lane %d: %v", i, err)
		}
		if !reflect.DeepEqual(got[i], st) {
			t.Errorf("lane %d batch vs single stats diverged", i)
		}
		if bsk, ssk := b.lanes[i].SkipStats(), pipe.SkipStats(); bsk != ssk {
			t.Errorf("lane %d skip counters diverged: batch %+v single %+v", i, bsk, ssk)
		}
	}
}
