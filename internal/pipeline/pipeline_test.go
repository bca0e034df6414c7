package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"specguard/internal/asm"
	"specguard/internal/interp"
	"specguard/internal/isa"
	"specguard/internal/machine"
	"specguard/internal/predict"
	"specguard/internal/prog"
)

// simulate runs src text under the given predictor and returns stats.
func simulate(t *testing.T, src string, pred predict.Predictor, mutate func(*Config)) Stats {
	t.Helper()
	p := asm.MustParse(src)
	return simulateProg(t, p, pred, mutate)
}

func simulateProg(t *testing.T, p *prog.Program, pred predict.Predictor, mutate func(*Config)) Stats {
	t.Helper()
	cfg := Config{Model: machine.R10000(), Predictor: pred}
	if mutate != nil {
		mutate(&cfg)
	}
	pipe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pipe.Run(freshSource(t, p))
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func twoBit() predict.Predictor { return predict.NewTwoBit(512) }

const straightLine = `
func main:
B0:
	li r1, 1
	li r2, 2
	li r3, 3
	li r4, 4
	li r5, 5
	li r6, 6
	li r7, 7
	li r8, 8
end:
	halt
`

func TestNewRequiresModelAndPredictor(t *testing.T) {
	if _, err := New(Config{Predictor: twoBit()}); err == nil {
		t.Error("missing model must fail")
	}
	if _, err := New(Config{Model: machine.R10000()}); err == nil {
		t.Error("missing predictor must fail")
	}
}

func TestStraightLineCommitsEverything(t *testing.T) {
	s := simulate(t, straightLine, twoBit(), nil)
	if s.Committed != 9 {
		t.Fatalf("committed = %d, want 9", s.Committed)
	}
	if s.Annulled != 0 || s.CondBranches != 0 || s.Mispredicts != 0 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.Cycles == 0 || s.IPC() <= 0 {
		t.Fatalf("cycles=%d ipc=%v", s.Cycles, s.IPC())
	}
	// 8 independent ALU ops on 2 ALUs take ≥4 issue cycles + pipeline
	// fill; anything below 30 cycles is sane for this tiny program.
	if s.Cycles > 30 {
		t.Errorf("cycles = %d, suspiciously slow", s.Cycles)
	}
}

func TestIPCNeverExceedsWidthOrUnitBound(t *testing.T) {
	// A long run of independent single-cycle ALU ops: IPC bounded by
	// the 2 ALUs, approached asymptotically.
	var sb strings.Builder
	sb.WriteString("func main:\nB0:\n")
	for i := 0; i < 400; i++ {
		sb.WriteString("\tli r1, 1\n\tli r2, 2\n")
	}
	sb.WriteString("\thalt\n")
	// Disable the I-cache: straight-line code cold-misses every line,
	// which is realistic but hides the ALU bound this test targets.
	s := simulate(t, sb.String(), twoBit(), func(c *Config) { c.DisableICache = true })
	if ipc := s.IPC(); ipc > 2.0 {
		t.Errorf("ALU-only IPC = %v exceeds the 2-ALU bound", ipc)
	}
	if ipc := s.IPC(); ipc < 1.5 {
		t.Errorf("ALU-only IPC = %v, expected near 2", ipc)
	}
}

func TestDependentChainIPC(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func main:\nB0:\n\tli r1, 0\n")
	for i := 0; i < 500; i++ {
		sb.WriteString("\tadd r1, r1, 1\n")
	}
	sb.WriteString("\thalt\n")
	s := simulate(t, sb.String(), twoBit(), nil)
	ipc := s.IPC()
	if ipc > 1.05 {
		t.Errorf("dependent chain IPC = %v, cannot exceed 1", ipc)
	}
	if ipc < 0.85 {
		t.Errorf("dependent chain IPC = %v, expected ≈1", ipc)
	}
}

const biasedLoop = `
func main:
entry:
	li r1, 0
loop:
	add r2, r2, r1
	add r1, r1, 1
	blt r1, 500, loop
exit:
	halt
`

func TestBiasedLoopPredictsWell(t *testing.T) {
	s := simulate(t, biasedLoop, twoBit(), nil)
	if s.CondBranches != 500 {
		t.Fatalf("branches = %d", s.CondBranches)
	}
	if s.PredAccuracy() < 0.99 {
		t.Errorf("accuracy = %v on a monotonic loop branch", s.PredAccuracy())
	}
	if s.Mispredicts > 2 {
		t.Errorf("mispredicts = %d, want ≤2", s.Mispredicts)
	}
}

const alternatingLoop = `
func main:
entry:
	li r1, 0
loop:
	and r2, r1, 1
	beq r2, 0, skip
body:
	add r3, r3, 1
skip:
	add r1, r1, 1
	blt r1, 500, loop
exit:
	halt
`

func TestMispredictionCostsCycles(t *testing.T) {
	bad := simulate(t, alternatingLoop, twoBit(), nil)
	good := simulate(t, alternatingLoop, predict.NewPerfect(), nil)
	if bad.Mispredicts < 200 {
		t.Errorf("2-bit mispredicts = %d on alternating branch, want many", bad.Mispredicts)
	}
	if good.Mispredicts != 0 {
		t.Errorf("perfect mispredicts = %d", good.Mispredicts)
	}
	if bad.Cycles <= good.Cycles {
		t.Errorf("mispredictions must cost cycles: 2bit=%d perfect=%d", bad.Cycles, good.Cycles)
	}
	if good.IPC() <= bad.IPC() {
		t.Errorf("perfect IPC %v must beat 2-bit IPC %v", good.IPC(), bad.IPC())
	}
}

func TestBranchLikelyAvoidsTableAndPredictsTaken(t *testing.T) {
	// A loop whose backward branch is branch-likely: taken 499 of 500
	// times, so the static taken prediction mispredicts exactly once.
	src := strings.Replace(biasedLoop, "blt r1, 500, loop", "bltl r1, 500, loop", 1)
	s := simulate(t, src, twoBit(), nil)
	if s.Mispredicts != 1 {
		t.Errorf("likely-loop mispredicts = %d, want 1 (final fall-through)", s.Mispredicts)
	}
	if s.PredAccuracy() < 0.99 {
		t.Errorf("accuracy = %v", s.PredAccuracy())
	}
}

const switchLoop = `
func main:
entry:
	li r1, 0
loop:
	and r2, r1, 1
	switch r2, c0, c1
c0:
	add r3, r3, 1
	j next
c1:
	add r4, r4, 1
	j next
next:
	add r1, r1, 1
	blt r1, 300, loop
exit:
	halt
`

func TestIndirectJumpStallsUnderTwoBit(t *testing.T) {
	bad := simulate(t, switchLoop, twoBit(), nil)
	good := simulate(t, switchLoop, predict.NewPerfect(), nil)
	if bad.IndirectOps != 300 {
		t.Errorf("indirect ops = %d, want 300", bad.IndirectOps)
	}
	if bad.Cycles <= good.Cycles {
		t.Errorf("indirect stalls must cost cycles: 2bit=%d perfect=%d", bad.Cycles, good.Cycles)
	}
	if bad.FetchStallCycles == 0 {
		t.Error("expected fetch stall cycles under 2-bit scheme")
	}
}

func TestAnnulledExcludedFromIPC(t *testing.T) {
	// Half the guarded movs are annulled; they commit but are excluded
	// from the IPC numerator.
	src := `
func main:
entry:
	li r1, 0
loop:
	and r2, r1, 1
	peq p1, r2, 0
	(p1) mov r3, r1
	(!p1) mov r4, r1
	add r1, r1, 1
	blt r1, 100, loop
exit:
	halt
`
	s := simulate(t, src, twoBit(), nil)
	if s.Annulled != 100 {
		t.Fatalf("annulled = %d, want 100 (one of each guarded pair per iteration)", s.Annulled)
	}
	gross := float64(s.Committed) / float64(s.Cycles)
	if s.IPC() >= gross {
		t.Error("IPC must exclude annulled operations")
	}
}

func TestDCacheMissesCostCycles(t *testing.T) {
	// Stride through 512 KB — every access a fresh line → heavy misses.
	src := `
func main:
entry:
	li r1, 0
	li r2, 0
loop:
	lw r3, 0(r2)
	add r2, r2, 512
	add r1, r1, 1
	blt r1, 1000, loop
exit:
	halt
`
	cold := simulate(t, src, twoBit(), nil)
	ideal := simulate(t, src, twoBit(), func(c *Config) { c.DisableDCache = true })
	if cold.DCacheMisses != 1000 {
		t.Errorf("dcache misses = %d, want 1000", cold.DCacheMisses)
	}
	if ideal.DCacheMisses != 0 {
		t.Errorf("ideal dcache misses = %d", ideal.DCacheMisses)
	}
	if cold.Cycles <= ideal.Cycles {
		t.Errorf("misses must cost cycles: %d vs %d", cold.Cycles, ideal.Cycles)
	}
}

func TestICacheMissesCounted(t *testing.T) {
	// A 4000-instruction straight line spans ~500 lines: every line is
	// a cold miss.
	var sb strings.Builder
	sb.WriteString("func main:\nB0:\n")
	for i := 0; i < 4000; i++ {
		sb.WriteString("\tli r1, 1\n")
	}
	sb.WriteString("\thalt\n")
	s := simulate(t, sb.String(), twoBit(), nil)
	if s.ICacheMisses < 400 {
		t.Errorf("icache misses = %d, want ≈500 cold misses", s.ICacheMisses)
	}
	ideal := simulate(t, sb.String(), twoBit(), func(c *Config) { c.DisableICache = true })
	if ideal.ICacheMisses != 0 {
		t.Errorf("ideal icache misses = %d", ideal.ICacheMisses)
	}
	if s.Cycles <= ideal.Cycles {
		t.Error("icache misses must cost cycles")
	}
}

func TestBranchStackPressureGrowsWithPredictionQuality(t *testing.T) {
	// Dense, well-predicted branches: under perfect prediction fetch
	// runs far ahead and branches pile up awaiting resolution, so the
	// BR stack is full far more often than under 2-bit prediction with
	// an unpredictable branch pattern (paper Table 3's signature).
	src := `
func main:
entry:
	li r1, 0
loop:
	and r2, r1, 7
	beq r2, 3, skip
b1:
	add r3, r3, 1
skip:
	add r1, r1, 1
	blt r1, 2000, loop
exit:
	halt
`
	base := simulate(t, src, twoBit(), nil)
	perfect := simulate(t, src, predict.NewPerfect(), nil)
	if perfect.QueueFullPct(QBranch) <= base.QueueFullPct(QBranch) {
		t.Errorf("BR-stack full%%: perfect=%.2f must exceed 2bit=%.2f",
			perfect.QueueFullPct(QBranch), base.QueueFullPct(QBranch))
	}
}

func TestDeterminism(t *testing.T) {
	a := simulate(t, alternatingLoop, twoBit(), nil)
	b := simulate(t, alternatingLoop, twoBit(), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// emptySource is a Source with no events, so no Code to name.
type emptySource struct{}

func (emptySource) NextInto(*interp.Event) (bool, error) { return false, nil }
func (emptySource) Code() *interp.Code                   { return nil }

// TestSliceSourceAndEmptyTrace: a Source with no events runs to a
// clean finish with nothing committed.
func TestSliceSourceAndEmptyTrace(t *testing.T) {
	pipe, err := New(Config{Model: machine.R10000(), Predictor: twoBit()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipe.Run(emptySource{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Committed != 0 {
		t.Errorf("committed = %d on empty trace", s.Committed)
	}
}

func TestCallRetProgramRuns(t *testing.T) {
	src := `
func main:
entry:
	li r1, 0
loop:
	call helper
back:
	add r1, r1, 1
	blt r1, 50, loop
exit:
	halt
func helper:
h:
	add r2, r2, 1
	ret
`
	s := simulate(t, src, twoBit(), nil)
	if s.IndirectOps != 100 {
		t.Errorf("indirect ops = %d, want 100 (50 calls + 50 rets)", s.IndirectOps)
	}
	perfect := simulate(t, src, predict.NewPerfect(), nil)
	if perfect.Cycles >= s.Cycles {
		t.Error("perfect prediction must speed up call-heavy code")
	}
}

func TestQueueOccupancyAccounting(t *testing.T) {
	s := simulate(t, biasedLoop, twoBit(), nil)
	for q := Queue(0); q < numQueues; q++ {
		if s.MeanQueueOccupancy(q) < 0 {
			t.Errorf("queue %v occupancy negative", q)
		}
		if s.QueueFullPct(q) < 0 || s.QueueFullPct(q) > 100 {
			t.Errorf("queue %v full%% out of range", q)
		}
	}
	if s.MeanQueueOccupancy(QInt) == 0 {
		t.Error("integer queue must have seen occupancy")
	}
}

func TestUnitUsageAccounting(t *testing.T) {
	s := simulate(t, biasedLoop, twoBit(), nil)
	if s.UnitBusy[isa.UnitALU] == 0 {
		t.Error("ALU must have issued")
	}
	if s.UnitBusy[isa.UnitBranch] == 0 {
		t.Error("branch unit must have issued")
	}
	if s.UnitFullPct(isa.UnitALU) < 0 || s.UnitFullPct(isa.UnitALU) > 100 {
		t.Error("unit full %% out of range")
	}
}

func TestStatsStringSmoke(t *testing.T) {
	s := simulate(t, biasedLoop, twoBit(), nil)
	out := s.String()
	for _, want := range []string{"IPC=", "queue-full%", "unit-full%", "icache-miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRingBuffer(t *testing.T) {
	r := newRing(3)
	if r.len() != 0 {
		t.Fatal("empty ring wrong")
	}
	// Dispatch seqs 0..2: each alloc must hand out the seq&mask slot.
	for i := int64(0); i < 3; i++ {
		e := r.alloc()
		e.seq = i
		e.state = stDispatched
	}
	if !r.full() {
		t.Fatal("ring should be full")
	}
	var seqs []int64
	r.each(func(e *entry) { seqs = append(seqs, e.seq) })
	if len(seqs) != 3 || seqs[0] != 0 || seqs[2] != 2 {
		t.Fatalf("each order = %v", seqs)
	}
	if r.at(1).seq != 1 {
		t.Fatal("at() does not resolve a live seq to its slot")
	}
	// Commit the two oldest; their slots keep the stale remains.
	r.front().state = stCompleted
	r.popFront()
	r.front().state = stCompleted
	r.popFront()
	if r.len() != 1 || r.front().seq != 2 {
		t.Fatalf("front after pops: len=%d seq=%d", r.len(), r.front().seq)
	}
	if got := r.at(0); got.seq != 0 || got.state != stCompleted {
		t.Fatal("committed slot must keep its remains until re-allocated")
	}
	// Re-dispatch into the ring: seq 3 wraps into a fresh slot.
	e := r.alloc()
	e.seq = 3
	if r.len() != 2 || r.at(3).seq != 3 {
		t.Fatal("wraparound alloc broken")
	}
	r.reset()
	if r.len() != 0 || r.frontSeq != 0 {
		t.Fatal("reset did not empty the ring")
	}
	if r.at(3).seq != -1 {
		t.Fatal("reset must scrub stale seqs")
	}
}

func TestRingOverflowPanics(t *testing.T) {
	r := newRing(1)
	r.alloc()
	defer func() {
		if recover() == nil {
			t.Error("alloc on a full ring must panic")
		}
	}()
	r.alloc()
}

// The three schemes must order as the paper's Tables 3–4 do on a
// mixed workload: 2-bit ≤ proposed-style ≤ perfect is checked at the
// bench level; here we check the ends: 2-bit IPC ≤ perfect IPC.
func TestSchemeOrderingOnMixedWorkload(t *testing.T) {
	src := `
func main:
entry:
	li r1, 0
	li r5, 64
loop:
	and r2, r1, 3
	beq r2, 0, special
plain:
	lw r3, 0(r5)
	add r3, r3, 1
	sw r3, 0(r5)
	j next
special:
	add r4, r4, 1
next:
	add r1, r1, 1
	blt r1, 1000, loop
exit:
	halt
`
	base := simulate(t, src, twoBit(), nil)
	perfect := simulate(t, src, predict.NewPerfect(), nil)
	if base.IPC() > perfect.IPC() {
		t.Errorf("2-bit IPC %v must not exceed perfect IPC %v", base.IPC(), perfect.IPC())
	}
	if base.Committed != perfect.Committed {
		t.Errorf("both schemes must commit identical streams: %d vs %d", base.Committed, perfect.Committed)
	}
}
