package prog

import (
	"strings"
	"testing"

	"specguard/internal/isa"
)

// diamondFunc builds the canonical hammock used across the suite:
//
//	B1: beq r1,r2 -> B3 ; fall-through B2
//	B2: j B4
//	B3: (falls through to B4)
//	B4: halt
func diamondFunc(t *testing.T) *Func {
	t.Helper()
	b := NewBuilder("main")
	b.Block("B1").
		Op3(isa.Add, isa.R(3), isa.R(1), isa.R(2)).
		Branch(isa.Beq, isa.R(1), isa.R(2), "B3")
	b.Block("B2").
		OpI(isa.Add, isa.R(4), isa.R(4), 1).
		Jump("B4")
	b.Block("B3").
		OpI(isa.Sub, isa.R(4), isa.R(4), 1)
	b.Block("B4").Halt()
	return b.Func()
}

func TestCFGDiamond(t *testing.T) {
	f := diamondFunc(t)
	b1, b2, b3, b4 := f.Block("B1"), f.Block("B2"), f.Block("B3"), f.Block("B4")
	if b1 == nil || b2 == nil || b3 == nil || b4 == nil {
		t.Fatal("missing blocks")
	}
	// Conditional branch: Succs[0] must be the taken target.
	if len(b1.Succs) != 2 || b1.Succs[0] != b3 || b1.Succs[1] != b2 {
		t.Fatalf("B1.Succs = %v", blockNames(b1.Succs))
	}
	if len(b2.Succs) != 1 || b2.Succs[0] != b4 {
		t.Fatalf("B2.Succs = %v", blockNames(b2.Succs))
	}
	// B3 has no terminator: falls through to B4.
	if len(b3.Succs) != 1 || b3.Succs[0] != b4 {
		t.Fatalf("B3.Succs = %v", blockNames(b3.Succs))
	}
	if len(b4.Succs) != 0 {
		t.Fatalf("B4.Succs = %v", blockNames(b4.Succs))
	}
	if len(b4.Preds) != 2 {
		t.Fatalf("B4.Preds = %v", blockNames(b4.Preds))
	}
}

func blockNames(bs []*Block) []string {
	var n []string
	for _, b := range bs {
		n = append(n, b.Name)
	}
	return n
}

func TestTerminatorAndBody(t *testing.T) {
	f := diamondFunc(t)
	b1 := f.Block("B1")
	if tr := b1.Terminator(); tr == nil || tr.Op != isa.Beq {
		t.Fatalf("B1.Terminator = %v", tr)
	}
	if body := b1.Body(); len(body) != 1 || body[0].Op != isa.Add {
		t.Fatalf("B1.Body = %d instrs", len(body))
	}
	b3 := f.Block("B3")
	if b3.Terminator() != nil {
		t.Fatal("B3 should have no terminator")
	}
	if len(b3.Body()) != 1 {
		t.Fatal("B3 body should be the whole block")
	}
	if b1.CondBranch() == nil || f.Block("B2").CondBranch() != nil {
		t.Fatal("CondBranch classification wrong")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamondFunc(t)
	d := Dominators(f)
	b1, b2, b3, b4 := f.Block("B1"), f.Block("B2"), f.Block("B3"), f.Block("B4")
	if d.IDom(b1) != nil {
		t.Error("entry has no idom")
	}
	if d.IDom(b2) != b1 || d.IDom(b3) != b1 || d.IDom(b4) != b1 {
		t.Errorf("idoms: B2=%v B3=%v B4=%v", d.IDom(b2), d.IDom(b3), d.IDom(b4))
	}
	if !d.Dominates(b1, b4) || d.Dominates(b2, b4) || d.Dominates(b3, b4) {
		t.Error("dominance relation wrong")
	}
	if !d.Dominates(b2, b2) {
		t.Error("dominance must be reflexive")
	}
	rpo := d.ReversePostorder()
	if len(rpo) != 4 || rpo[0] != b1 {
		t.Errorf("rpo = %v", blockNames(rpo))
	}
}

func loopFunc(t *testing.T) *Func {
	t.Helper()
	// entry -> head; head: blt -> body | exit; body -> head (back edge)
	b := NewBuilder("main")
	b.Block("entry").Li(isa.R(1), 0)
	b.Block("head").BranchI(isa.Bge, isa.R(1), 100, "exit")
	b.Block("body").OpI(isa.Add, isa.R(1), isa.R(1), 1).Jump("head")
	b.Block("exit").Halt()
	return b.Func()
}

func TestNaturalLoops(t *testing.T) {
	f := loopFunc(t)
	loops := NaturalLoops(f)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Head != f.Block("head") {
		t.Errorf("loop head = %s", l.Head.Name)
	}
	if !l.Contains(f.Block("body")) || !l.Contains(f.Block("head")) {
		t.Error("loop must contain head and body")
	}
	if l.Contains(f.Block("entry")) || l.Contains(f.Block("exit")) {
		t.Error("loop must not contain entry/exit")
	}
	if len(l.Latches) != 1 || l.Latches[0] != f.Block("body") {
		t.Errorf("latches = %v", blockNames(l.Latches))
	}
	if len(l.Exits) != 1 || l.Exits[0] != f.Block("head") {
		t.Errorf("exits = %v", blockNames(l.Exits))
	}
}

func TestNestedLoops(t *testing.T) {
	b := NewBuilder("main")
	b.Block("entry").Li(isa.R(1), 0)
	b.Block("outer").Li(isa.R(2), 0)
	b.Block("inner").
		OpI(isa.Add, isa.R(2), isa.R(2), 1).
		BranchI(isa.Blt, isa.R(2), 10, "inner")
	b.Block("latch").
		OpI(isa.Add, isa.R(1), isa.R(1), 1).
		BranchI(isa.Blt, isa.R(1), 10, "outer")
	b.Block("exit").Halt()
	f := b.Func()

	loops := NaturalLoops(f)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	// Ordered by header layout position: outer first.
	outer, inner := loops[0], loops[1]
	if outer.Head.Name != "outer" || inner.Head.Name != "inner" {
		t.Fatalf("heads = %s, %s", outer.Head.Name, inner.Head.Name)
	}
	if !outer.Contains(f.Block("inner")) || !outer.Contains(f.Block("latch")) {
		t.Error("outer loop must contain inner blocks")
	}
	if inner.Contains(f.Block("latch")) || inner.Contains(f.Block("outer")) {
		t.Error("inner loop contains too much")
	}
}

func TestIsBackwardBranch(t *testing.T) {
	f := loopFunc(t)
	if IsBackwardBranch(f, f.Block("head")) {
		t.Error("head's branch targets a later block: forward")
	}
	// Self-loop: branch to own block counts as backward.
	b := NewBuilder("main")
	b.Block("spin").BranchI(isa.Bne, isa.R(1), 0, "spin")
	b.Block("end").Halt()
	g := b.Func()
	if !IsBackwardBranch(g, g.Block("spin")) {
		t.Error("self-branch should be backward")
	}
}

func TestVerifyGood(t *testing.T) {
	p := NewProgram()
	p.AddFunc(diamondFunc(t))
	if err := Verify(p, VerifyIR); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := Verify(p, VerifyMachine); err != nil {
		t.Fatalf("Verify machine: %v", err)
	}
}

func TestVerifyCatchesGuardedNonMove(t *testing.T) {
	p := NewProgram()
	b := NewBuilder("main")
	b.Block("B0").
		Emit(isa.Instr{Op: isa.Add, Rd: isa.R(1), Rs: isa.R(1), Imm: 1, Pred: isa.P(1)}).
		Halt()
	p.AddFunc(b.Func())
	if err := Verify(p, VerifyIR); err != nil {
		t.Fatalf("IR mode must accept guarded add: %v", err)
	}
	if err := Verify(p, VerifyMachine); err == nil {
		t.Fatal("machine mode must reject guarded add")
	}
}

func TestVerifyErrors(t *testing.T) {
	// Missing entry function.
	p := NewProgram()
	f := NewFunc("helper")
	f.AddBlock("b").Instrs = []*isa.Instr{{Op: isa.Ret}}
	p.AddFunc(f)
	if err := Verify(p, VerifyIR); err == nil || !strings.Contains(err.Error(), "entry") {
		t.Errorf("want entry error, got %v", err)
	}

	// Control instruction mid-block.
	p2 := NewProgram()
	f2 := NewFunc("main")
	blk := f2.AddBlock("b")
	blk.Instrs = []*isa.Instr{{Op: isa.J, Label: "b"}, {Op: isa.Halt}}
	p2.AddFunc(f2)
	if err := Verify(p2, VerifyIR); err == nil || !strings.Contains(err.Error(), "not at block end") {
		t.Errorf("want mid-block control error, got %v", err)
	}

	// Unknown branch target.
	p3 := NewProgram()
	f3 := NewFunc("main")
	f3.AddBlock("b").Instrs = []*isa.Instr{{Op: isa.Beq, Rs: isa.R(1), Rt: isa.R(2), Label: "nowhere"}}
	p3.AddFunc(f3)
	if err := Verify(p3, VerifyIR); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Errorf("want unknown-target error, got %v", err)
	}

	// Call to unknown function.
	p4 := NewProgram()
	f4 := NewFunc("main")
	b4 := f4.AddBlock("b")
	b4.Instrs = []*isa.Instr{{Op: isa.Call, Label: "nope"}}
	f4.AddBlock("end").Instrs = []*isa.Instr{{Op: isa.Halt}}
	p4.AddFunc(f4)
	if err := Verify(p4, VerifyIR); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Errorf("want unknown-function error, got %v", err)
	}

	// Final block falls off the end.
	p5 := NewProgram()
	f5 := NewFunc("main")
	f5.AddBlock("b").Instrs = []*isa.Instr{{Op: isa.Add, Rd: isa.R(1), Rs: isa.R(1), Rt: isa.R(2)}}
	p5.AddFunc(f5)
	if err := Verify(p5, VerifyIR); err == nil || !strings.Contains(err.Error(), "fall off") {
		t.Errorf("want fall-off error, got %v", err)
	}
}

func TestRebuildCFGError(t *testing.T) {
	f := NewFunc("main")
	f.AddBlock("b").Instrs = []*isa.Instr{{Op: isa.J, Label: "missing"}}
	if err := f.RebuildCFG(); err == nil {
		t.Fatal("RebuildCFG must fail on unknown target")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewProgram()
	p.AddFunc(diamondFunc(t))
	q := p.Clone()
	// Mutate the clone; original must be untouched.
	qb := q.Func("main").Block("B1")
	qb.Instrs[0].Rd = isa.R(9)
	qb.Instrs = qb.Instrs[:1]
	if p.Func("main").Block("B1").Instrs[0].Rd != isa.R(3) {
		t.Error("clone shares instruction storage with original")
	}
	if len(p.Func("main").Block("B1").Instrs) != 2 {
		t.Error("clone shares instruction slice with original")
	}
	if q.Entry != p.Entry {
		t.Error("entry not copied")
	}
	if p.NumInstrs() != 6 {
		t.Errorf("NumInstrs = %d, want 6", p.NumInstrs())
	}
}

func TestInsertBlockAfterAndFreshNames(t *testing.T) {
	f := diamondFunc(t)
	b2 := f.Block("B2")
	nb := f.InsertBlockAfter(b2, "B2.split")
	if f.Index(nb) != f.Index(b2)+1 {
		t.Error("inserted block not immediately after position")
	}
	if f.Block("B2.split") != nb {
		t.Error("inserted block not indexed by name")
	}
	if n := f.FreshBlockName("B2"); n != "B2.1" {
		t.Errorf("FreshBlockName = %q, want B2.1", n)
	}
	if n := f.FreshBlockName("XYZ"); n != "XYZ" {
		t.Errorf("FreshBlockName = %q, want XYZ", n)
	}
}

func TestProgramPrintRoundStructure(t *testing.T) {
	p := NewProgram()
	p.AddFunc(diamondFunc(t))
	s := p.String()
	for _, want := range []string{"func main:", "B1:", "beq r1, r2, B3", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("program text missing %q:\n%s", want, s)
		}
	}
}

func TestCallFallThroughEdge(t *testing.T) {
	p := NewProgram()
	mb := NewBuilder("main")
	mb.Block("a").Call("helper")
	mb.Block("b").Halt()
	p.AddFunc(mb.Func())
	hb := NewBuilder("helper")
	hb.Block("h").Ret()
	p.AddFunc(hb.Func())
	if err := Verify(p, VerifyIR); err != nil {
		t.Fatal(err)
	}
	f := p.Func("main")
	a := f.Block("a")
	if len(a.Succs) != 1 || a.Succs[0] != f.Block("b") {
		t.Errorf("call block successors = %v", blockNames(a.Succs))
	}
}

func TestSwitchEdges(t *testing.T) {
	b := NewBuilder("main")
	b.Block("d").Switch(isa.R(1), "t0", "t1", "t2")
	b.Block("t0").Jump("end")
	b.Block("t1").Jump("end")
	b.Block("t2").Jump("end")
	b.Block("end").Halt()
	f := b.Func()
	d := f.Block("d")
	if len(d.Succs) != 3 {
		t.Fatalf("switch successors = %v", blockNames(d.Succs))
	}
	if len(f.Block("end").Preds) != 3 {
		t.Errorf("end preds = %v", blockNames(f.Block("end").Preds))
	}
}

func TestUnreachableBlockHandled(t *testing.T) {
	b := NewBuilder("main")
	b.Block("entry").Jump("end")
	b.Block("orphan").OpI(isa.Add, isa.R(1), isa.R(1), 1).Jump("end")
	b.Block("end").Halt()
	f := b.Func()
	d := Dominators(f)
	if d.Reachable(f.Block("orphan")) {
		t.Error("orphan should be unreachable")
	}
	if !d.Reachable(f.Block("end")) {
		t.Error("end should be reachable")
	}
	if d.Dominates(f.Block("orphan"), f.Block("end")) {
		t.Error("unreachable block dominates nothing")
	}
	if len(NaturalLoops(f)) != 0 {
		t.Error("no loops expected")
	}
}

func TestBranchSiteID(t *testing.T) {
	f := diamondFunc(t)
	if got := BranchSiteID(f, f.Block("B1")); got != "main.B1" {
		t.Errorf("BranchSiteID = %q", got)
	}
}

func TestDuplicateBlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate block name")
		}
	}()
	f := NewFunc("main")
	f.AddBlock("b")
	f.AddBlock("b")
}

// TestFingerprintAllocations pins the streamed fingerprint: the
// printed program is hashed line by line from a stack buffer, so the
// allocation count is a constant, not one per instruction.
func TestFingerprintAllocations(t *testing.T) {
	build := func(n int) *Program {
		b := NewBuilder("main")
		b.Block("entry")
		for i := 0; i < n; i++ {
			b.Op3(isa.Add, isa.R(1), isa.R(1), isa.R(2))
		}
		b.Block("done").Halt()
		p := NewProgram()
		p.AddFunc(b.Func())
		if err := p.AddRegion(Region{Name: "buf", Base: 64, Len: 64, Secret: true}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	small, large := build(4), build(400)
	a := testing.AllocsPerRun(20, func() { small.Fingerprint() })
	b := testing.AllocsPerRun(20, func() { large.Fingerprint() })
	if a != b || b > 2 {
		t.Errorf("Fingerprint allocates %v objects for 5 instructions and %v for 401, want the same small constant", a, b)
	}
}
