package dep

import (
	"testing"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

// all returns the full register universe, matching Liveness's internal
// barrier set.
func all() RegSet {
	var s RegSet
	for i := 0; i < isa.NumIntRegs; i++ {
		s.Add(isa.R(i))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		s.Add(isa.F(i))
	}
	for i := 0; i < isa.NumPredRegs; i++ {
		s.Add(isa.P(i))
	}
	return s
}

// These tests pin the documented conservative contract of Liveness so
// that internal/analysis (and any other pass) can rely on it: blocks
// containing Call, Ret or Halt are barriers with a full live-out set,
// and guarded definitions never kill liveness.

// TestLivenessCallBarrier: every register is live across a call — the
// callee is not analyzed here.
func TestLivenessCallBarrier(t *testing.T) {
	f := prog.NewFunc("main")
	b0 := f.AddBlock("b0")
	b0.Instrs = []*isa.Instr{
		{Op: isa.Li, Rd: isa.R(1), Imm: 1},
		{Op: isa.Call, Label: "helper"},
	}
	b1 := f.AddBlock("b1")
	b1.Instrs = []*isa.Instr{
		{Op: isa.Li, Rd: isa.R(2), Imm: 2},
		{Op: isa.Halt},
	}
	f.MustRebuildCFG()

	l := Liveness(f)
	if !l.Out[b0].Equal(all()) {
		t.Errorf("call block live-out must be the full universe, got %v", l.Out[b0])
	}
	// The barrier applies even though b1 itself kills r2 before its own
	// halt barrier: conservatism is per-block, not flow-refined.
	if !l.Out[b1].Equal(all()) {
		t.Errorf("halt block live-out must be the full universe, got %v", l.Out[b1])
	}
}

// TestLivenessRetAndHaltAllLive: Ret (caller state) and Halt (final
// machine state) make everything live out of their blocks.
func TestLivenessRetAndHaltAllLive(t *testing.T) {
	for _, op := range []isa.Op{isa.Ret, isa.Halt} {
		f := prog.NewFunc("f")
		b := f.AddBlock("b")
		b.Instrs = []*isa.Instr{
			{Op: isa.Li, Rd: isa.R(9), Imm: 0},
			{Op: op},
		}
		f.MustRebuildCFG()
		l := Liveness(f)
		if !l.Out[b].Equal(all()) {
			t.Errorf("%v block live-out must be the full universe, got %v", op, l.Out[b])
		}
		// The unguarded li kills r9 on the way back through the block,
		// so live-in drops it.
		if l.In[b].Has(isa.R(9)) {
			t.Errorf("%v: r9 is defined before the barrier, must not be live-in", op)
		}
	}
}

// TestLivenessGuardedDefsDoNotKill: a guarded def may not execute, so
// the incoming value stays live above it; the guard itself is a use.
func TestLivenessGuardedDefsDoNotKill(t *testing.T) {
	f := prog.NewFunc("main")
	b0 := f.AddBlock("b0")
	b0.Instrs = []*isa.Instr{
		{Op: isa.Li, Rd: isa.R(5), Imm: 1, Pred: isa.P(1)}, // (p1) li r5, 1
		{Op: isa.Sw, Rd: isa.R(5), Rs: isa.R(8)},           // store r5
		{Op: isa.J, Label: "end"},
	}
	end := f.AddBlock("end")
	end.Instrs = []*isa.Instr{{Op: isa.Halt}}
	f.MustRebuildCFG()

	l := Liveness(f)
	if !l.In[b0].Has(isa.R(5)) {
		t.Error("guarded def must not kill r5: the old value is stored when p1 is false")
	}
	if !l.In[b0].Has(isa.P(1)) {
		t.Error("the guard predicate is a use and must be live-in")
	}

	// Contrast: an unguarded def does kill.
	b0.Instrs[0].Pred = isa.NoReg
	l = Liveness(f)
	if l.In[b0].Has(isa.R(5)) {
		t.Error("unguarded def must kill r5")
	}
}

// TestLiveAtWalk pins the per-instruction refinement used by Speculate:
// LiveAt walks back from live-out applying the same guarded-def rule.
func TestLiveAtWalk(t *testing.T) {
	f := prog.NewFunc("main")
	b0 := f.AddBlock("b0")
	b0.Instrs = []*isa.Instr{
		{Op: isa.Li, Rd: isa.R(3), Imm: 7},                        // 0: defines r3
		{Op: isa.Add, Rd: isa.R(4), Rs: isa.R(3), Imm: 1},         // 1: uses r3
		{Op: isa.Mov, Rd: isa.R(3), Rs: isa.R(4), Pred: isa.P(2)}, // 2: guarded def of r3
		{Op: isa.J, Label: "end"},
	}
	end := f.AddBlock("end")
	end.Instrs = []*isa.Instr{
		{Op: isa.Sw, Rd: isa.R(3), Rs: isa.R(8)},
		{Op: isa.Halt},
	}
	f.MustRebuildCFG()

	l := Liveness(f)
	// Before instr 1, r3 is live (used right there).
	if !l.LiveAt(b0, 1).Has(isa.R(3)) {
		t.Error("r3 must be live before its use at index 1")
	}
	// Before instr 0, r3 is dead: the unguarded li kills it and nothing
	// above uses it.
	if l.LiveAt(b0, 0).Has(isa.R(3)) {
		t.Error("r3 must be dead above the unguarded li that defines it")
	}
	// Before instr 2 (the guarded mov), r3 is live: the guarded def
	// does not kill it and the successor stores it.
	if !l.LiveAt(b0, 2).Has(isa.R(3)) {
		t.Error("r3 must stay live across its guarded def")
	}
	// LiveAt(len) is live-out.
	if !l.LiveAt(b0, len(b0.Instrs)).Equal(l.Out[b0]) {
		t.Error("LiveAt(len) must equal the block's live-out")
	}
}
