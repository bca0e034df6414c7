package dep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	if !s.Empty() {
		t.Fatal("zero value must be empty")
	}
	s.Add(isa.R(0))
	s.Add(isa.R(31))
	s.Add(isa.F(0))
	s.Add(isa.F(31))
	s.Add(isa.P(0))
	s.Add(isa.P(7))
	s.Add(isa.NoReg) // ignored
	for _, r := range []isa.Reg{isa.R(0), isa.R(31), isa.F(0), isa.F(31), isa.P(0), isa.P(7)} {
		if !s.Has(r) {
			t.Errorf("missing %v", r)
		}
	}
	for _, r := range []isa.Reg{isa.R(1), isa.F(30), isa.P(1), isa.NoReg} {
		if s.Has(r) {
			t.Errorf("unexpected %v", r)
		}
	}
	if len(s.Regs()) != 6 {
		t.Errorf("Regs = %v", s.Regs())
	}
	s.Remove(isa.R(31))
	if s.Has(isa.R(31)) {
		t.Error("Remove failed")
	}
	if got := s.String(); got != "{r0 f0 f31 p0 p7}" {
		t.Errorf("String = %q", got)
	}
}

func TestRegSetAlgebra(t *testing.T) {
	var a, b RegSet
	a.Add(isa.R(1))
	a.Add(isa.F(2))
	b.Add(isa.F(2))
	b.Add(isa.P(3))
	u := a.Union(b)
	if !u.Has(isa.R(1)) || !u.Has(isa.F(2)) || !u.Has(isa.P(3)) {
		t.Error("Union wrong")
	}
	m := a.Minus(b)
	if !m.Has(isa.R(1)) || m.Has(isa.F(2)) {
		t.Error("Minus wrong")
	}
	if !a.Intersects(b) {
		t.Error("Intersects should be true via f2")
	}
	var c RegSet
	c.Add(isa.P(5))
	if a.Intersects(c) {
		t.Error("Intersects should be false")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal wrong")
	}
}

// Property: RegSet agrees with a map[Reg]bool model under random
// add/remove sequences.
func TestQuickRegSetModel(t *testing.T) {
	f := func(ops []uint16) bool {
		var s RegSet
		model := map[isa.Reg]bool{}
		allRegs := allRegisters()
		for _, o := range ops {
			r := allRegs[int(o)%len(allRegs)]
			if o&0x8000 != 0 {
				s.Remove(r)
				delete(model, r)
			} else {
				s.Add(r)
				model[r] = true
			}
		}
		for _, r := range allRegs {
			if s.Has(r) != model[r] {
				return false
			}
		}
		return len(s.Regs()) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func allRegisters() []isa.Reg {
	var all []isa.Reg
	for i := 0; i < isa.NumIntRegs; i++ {
		all = append(all, isa.R(i))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		all = append(all, isa.F(i))
	}
	for i := 0; i < isa.NumPredRegs; i++ {
		all = append(all, isa.P(i))
	}
	return all
}

// Figure 1(a) of the paper:
//
//	0: lw  r6, 0(r7)       (stand-in for the first def of r6)
//	1: beq r1, r2, L1      — terminator in the real fragment; here we
//	                         build the straight-line body variant
//	2: sub r6, r3, 1
//	3: add r8, r6, r4
func TestBuildTrueAntiOutput(t *testing.T) {
	ins := []*isa.Instr{
		{Op: isa.Lw, Rd: isa.R(6), Rs: isa.R(7)},
		{Op: isa.Sub, Rd: isa.R(6), Rs: isa.R(3), Imm: 1},
		{Op: isa.Add, Rd: isa.R(8), Rs: isa.R(6), Rt: isa.R(4)},
	}
	g := Build(ins)
	if !hasEdge(g, 0, 1, Output) {
		t.Error("lw→sub output dependence missing (both write r6)")
	}
	if !hasEdge(g, 1, 2, True) {
		t.Error("sub→add true dependence missing (r6)")
	}
	if hasEdge(g, 0, 2, True) {
		// add reads r6 which instruction 0 also defines; a true edge
		// 0→2 is present in a value-based analysis only if 1 didn't
		// redefine. Our analysis is conservative pairwise and does add
		// it; accept either but require the 1→2 edge above.
		t.Log("conservative 0→2 true edge present (accepted)")
	}
	if !hasEdge(g, 0, 1, Output) || len(g.Roots()) != 1 || g.Roots()[0] != 0 {
		t.Errorf("roots = %v", g.Roots())
	}
}

func TestBuildAntiEdge(t *testing.T) {
	ins := []*isa.Instr{
		{Op: isa.Add, Rd: isa.R(1), Rs: isa.R(2), Rt: isa.R(3)}, // reads r2
		{Op: isa.Li, Rd: isa.R(2), Imm: 5},                      // writes r2
	}
	g := Build(ins)
	if !hasEdge(g, 0, 1, Anti) {
		t.Error("anti edge missing")
	}
	if hasEdge(g, 0, 1, True) {
		t.Error("no true edge expected")
	}
}

func TestBuildMemoryEdges(t *testing.T) {
	sameBase := []*isa.Instr{
		{Op: isa.Sw, Rd: isa.R(1), Rs: isa.R(10), Imm: 0},
		{Op: isa.Lw, Rd: isa.R(2), Rs: isa.R(10), Imm: 8}, // different offset: disjoint
		{Op: isa.Lw, Rd: isa.R(3), Rs: isa.R(10), Imm: 0}, // same word: must order
		{Op: isa.Sw, Rd: isa.R(4), Rs: isa.R(11), Imm: 0}, // different base: may alias
	}
	g := Build(sameBase)
	if hasEdge(g, 0, 1, Memory) {
		t.Error("same base, different offsets must not alias")
	}
	if !hasEdge(g, 0, 2, Memory) {
		t.Error("store→load same address must be ordered")
	}
	if !hasEdge(g, 0, 3, Memory) {
		t.Error("different bases must be conservatively ordered")
	}
	if !hasEdge(g, 2, 3, Memory) {
		t.Error("load→store different base must be ordered")
	}
	if hasEdge(g, 1, 2, Memory) {
		t.Error("load→load must not be ordered")
	}
}

func TestBuildControlEdges(t *testing.T) {
	ins := []*isa.Instr{
		{Op: isa.Add, Rd: isa.R(1), Rs: isa.R(1), Imm: 1},
		{Op: isa.Li, Rd: isa.R(2), Imm: 3},
		{Op: isa.Beq, Rs: isa.R(1), Rt: isa.R(2), Label: "L"},
	}
	g := Build(ins)
	if !hasEdge(g, 0, 2, Control) && !hasEdge(g, 0, 2, True) {
		t.Error("instruction must be ordered before terminator")
	}
	if !hasEdge(g, 1, 2, Control) {
		t.Error("control edge to terminator missing")
	}
	if !hasEdge(g, 0, 2, True) {
		t.Error("branch reads r1: true edge expected")
	}
}

func TestGuardPredicateDependence(t *testing.T) {
	ins := []*isa.Instr{
		{Op: isa.PLt, Rd: isa.P(1), Rs: isa.R(1), Imm: 40},
		{Op: isa.Mov, Rd: isa.R(2), Rs: isa.R(3), Pred: isa.P(1)},
	}
	g := Build(ins)
	if !hasEdge(g, 0, 1, True) {
		t.Error("guarded instruction must truly depend on its predicate def")
	}
}

func TestEdgeLatency(t *testing.T) {
	if (Edge{Kind: True}).Latency(3) != 3 {
		t.Error("true edge latency must be the producer's")
	}
	if (Edge{Kind: Memory}).Latency(2) != 2 {
		t.Error("memory edge latency must be the producer's")
	}
	for _, k := range []Kind{Anti, Output, Control} {
		if (Edge{Kind: k}).Latency(3) != 0 {
			t.Errorf("%v edge latency must be 0", k)
		}
	}
}

func TestHasPath(t *testing.T) {
	ins := []*isa.Instr{
		{Op: isa.Li, Rd: isa.R(1), Imm: 1},
		{Op: isa.Add, Rd: isa.R(2), Rs: isa.R(1), Imm: 1},
		{Op: isa.Add, Rd: isa.R(3), Rs: isa.R(2), Imm: 1},
		{Op: isa.Li, Rd: isa.R(9), Imm: 0},
	}
	g := Build(ins)
	if !g.HasPath(0, 2) {
		t.Error("transitive path 0→1→2 missing")
	}
	if g.HasPath(0, 3) {
		t.Error("no path 0→3 expected")
	}
	if g.HasPath(2, 0) {
		t.Error("paths only go forward")
	}
}

func hasEdge(g *Graph, from, to int, k Kind) bool {
	for _, e := range g.Succs[from] {
		if e.To == to && e.Kind == k {
			return true
		}
	}
	return false
}

// Property: the dependence graph is acyclic-by-construction (edges only
// point forward) and Preds/Succs mirror each other.
func TestQuickGraphWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		ins := make([]*isa.Instr, n)
		for i := range ins {
			ins[i] = randomInstr(rng)
		}
		g := Build(ins)
		for i := range g.Succs {
			for _, e := range g.Succs[i] {
				if e.From != i || e.To <= i {
					t.Fatalf("trial %d: malformed edge %+v at %d", trial, e, i)
				}
				found := false
				for _, p := range g.Preds[e.To] {
					if p == e {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: edge %+v missing from Preds", trial, e)
				}
			}
		}
		for i := range g.Preds {
			for _, e := range g.Preds[i] {
				if e.To != i {
					t.Fatalf("trial %d: pred edge %+v at %d", trial, e, i)
				}
			}
		}
	}
}

func randomInstr(rng *rand.Rand) *isa.Instr {
	r := func() isa.Reg { return isa.R(rng.Intn(8)) }
	switch rng.Intn(6) {
	case 0:
		return &isa.Instr{Op: isa.Add, Rd: r(), Rs: r(), Rt: r()}
	case 1:
		return &isa.Instr{Op: isa.Li, Rd: r(), Imm: int64(rng.Intn(100))}
	case 2:
		return &isa.Instr{Op: isa.Lw, Rd: r(), Rs: r(), Imm: int64(rng.Intn(8) * 8)}
	case 3:
		return &isa.Instr{Op: isa.Sw, Rd: r(), Rs: r(), Imm: int64(rng.Intn(8) * 8)}
	case 4:
		return &isa.Instr{Op: isa.Sll, Rd: r(), Rs: r(), Imm: int64(rng.Intn(8))}
	default:
		return &isa.Instr{Op: isa.Mov, Rd: r(), Rs: r(), Pred: isa.P(1 + rng.Intn(3))}
	}
}

func TestLivenessStraightLine(t *testing.T) {
	b := prog.NewBuilder("main")
	b.Block("entry").
		Li(isa.R(1), 1).
		Op3(isa.Add, isa.R(2), isa.R(1), isa.R(3)). // uses r3: live-in
		Halt()
	f := b.Func()
	l := Liveness(f)
	entry := f.Block("entry")
	if !l.In[entry].Has(isa.R(3)) {
		t.Error("r3 must be live-in")
	}
	if l.In[entry].Has(isa.R(1)) {
		t.Error("r1 is defined before use: not live-in")
	}
	// Halt is an observability barrier: everything is live at exit.
	if !l.Out[entry].Has(isa.R(17)) {
		t.Error("halt block must have a full live-out set")
	}
}

func TestLivenessAcrossBranch(t *testing.T) {
	// B1: branch → B3 or B2. B2 uses r4; B3 uses r5. Both live-in at B1.
	b := prog.NewBuilder("main")
	b.Block("B1").Branch(isa.Beq, isa.R(1), isa.R(2), "B3")
	b.Block("B2").Op3(isa.Add, isa.R(6), isa.R(4), isa.R(4)).Jump("B4")
	b.Block("B3").Op3(isa.Add, isa.R(6), isa.R(5), isa.R(5))
	b.Block("B4").Halt()
	f := b.Func()
	l := Liveness(f)
	b1 := f.Block("B1")
	for _, r := range []isa.Reg{isa.R(1), isa.R(2), isa.R(4), isa.R(5)} {
		if !l.In[b1].Has(r) {
			t.Errorf("%v must be live-in at B1", r)
		}
	}
	if l.In[b1].Has(isa.R(6)) {
		t.Error("r6 is only defined, not live-in")
	}
	// r6 stays live after B2: the final Halt observes all state.
	if !l.Out[f.Block("B2")].Has(isa.R(6)) {
		t.Error("r6 must stay live through to the halt barrier")
	}
}

func TestLivenessLoop(t *testing.T) {
	b := prog.NewBuilder("main")
	b.Block("entry").Li(isa.R(1), 0).Li(isa.R(2), 0)
	b.Block("loop").
		Op3(isa.Add, isa.R(2), isa.R(2), isa.R(1)).
		OpI(isa.Add, isa.R(1), isa.R(1), 1).
		BranchI(isa.Blt, isa.R(1), 10, "loop")
	b.Block("exit").
		Mov(isa.R(3), isa.R(2)).
		Halt()
	f := b.Func()
	l := Liveness(f)
	loop := f.Block("loop")
	// r1 and r2 are live around the back edge.
	if !l.In[loop].Has(isa.R(1)) || !l.In[loop].Has(isa.R(2)) {
		t.Errorf("loop live-in = %v", l.In[loop])
	}
	if !l.Out[loop].Has(isa.R(2)) {
		t.Error("r2 must be live-out of loop (used at exit)")
	}
}

func TestLivenessGuardedDefDoesNotKill(t *testing.T) {
	// (p1) mov r2, r3 — r2's old value survives when p1 is false, so a
	// use of r2 below keeps r2 live ABOVE the guarded def.
	b := prog.NewBuilder("main")
	b.Block("entry").
		Emit(isa.Instr{Op: isa.Mov, Rd: isa.R(2), Rs: isa.R(3), Pred: isa.P(1)}).
		Mov(isa.R(4), isa.R(2)).
		Halt()
	f := b.Func()
	l := Liveness(f)
	entry := f.Block("entry")
	if !l.In[entry].Has(isa.R(2)) {
		t.Error("guarded def must not kill r2")
	}
	if !l.In[entry].Has(isa.P(1)) {
		t.Error("guard predicate must be live-in")
	}
}

func TestLivenessCallIsBarrier(t *testing.T) {
	p := prog.NewProgram()
	mb := prog.NewBuilder("main")
	mb.Block("a").Li(isa.R(9), 1).Call("helper")
	mb.Block("b").Halt()
	p.AddFunc(mb.Func())
	hb := prog.NewBuilder("helper")
	hb.Block("h").Ret()
	p.AddFunc(hb.Func())
	l := Liveness(p.Func("main"))
	a := p.Func("main").Block("a")
	if !l.Out[a].Has(isa.R(9)) || !l.Out[a].Has(isa.R(17)) {
		t.Error("every register must be live across a call")
	}
}

func TestLiveAt(t *testing.T) {
	b := prog.NewBuilder("main")
	b.Block("entry").
		Li(isa.R(1), 1).                            // 0
		Op3(isa.Add, isa.R(2), isa.R(1), isa.R(1)). // 1
		Mov(isa.R(3), isa.R(2)).                    // 2
		Halt()                                      // 3
	f := b.Func()
	l := Liveness(f)
	entry := f.Block("entry")
	if !l.LiveAt(entry, 1).Has(isa.R(1)) {
		t.Error("r1 live before instr 1")
	}
	if l.LiveAt(entry, 1).Has(isa.R(2)) {
		t.Error("r2 not yet live before instr 1")
	}
	if !l.LiveAt(entry, 2).Has(isa.R(2)) {
		t.Error("r2 live before instr 2")
	}
	// The halt barrier keeps r2 live to the end (observable state).
	if !l.LiveAt(entry, 3).Has(isa.R(2)) {
		t.Error("r2 must stay live up to halt")
	}
}

// TestDefsUsesOfAllocateNothing pins DefsOf and UsesOf to stack
// buffers: the transforms and the audit call them per instruction.
func TestDefsUsesOfAllocateNothing(t *testing.T) {
	in := &isa.Instr{Op: isa.Sw, Rd: isa.R(4), Rs: isa.R(5), Pred: isa.P(1)}
	ld := &isa.Instr{Op: isa.Lw, Rd: isa.R(4), Rs: isa.R(5)}
	var sink RegSet
	if n := testing.AllocsPerRun(100, func() {
		sink = DefsOf(ld).Union(UsesOf(in))
	}); n != 0 {
		t.Errorf("DefsOf/UsesOf allocate %v objects per call, want 0", n)
	}
	if want := (RegSet{}); sink == want {
		t.Error("sets are empty")
	}
}
