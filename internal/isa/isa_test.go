package isa

import (
	"testing"
	"testing/quick"
)

func TestRegConstructorsAndClasses(t *testing.T) {
	cases := []struct {
		r      Reg
		isInt  bool
		isFP   bool
		isPred bool
		index  int
		str    string
	}{
		{R(0), true, false, false, 0, "r0"},
		{R(31), true, false, false, 31, "r31"},
		{F(0), false, true, false, 0, "f0"},
		{F(31), false, true, false, 31, "f31"},
		{P(0), false, false, true, 0, "p0"},
		{P(7), false, false, true, 7, "p7"},
	}
	for _, c := range cases {
		if c.r.IsInt() != c.isInt || c.r.IsFP() != c.isFP || c.r.IsPred() != c.isPred {
			t.Errorf("%v: class flags = (%v,%v,%v)", c.r, c.r.IsInt(), c.r.IsFP(), c.r.IsPred())
		}
		if got := c.r.Index(); got != c.index {
			t.Errorf("%v.Index() = %d, want %d", c.r, got, c.index)
		}
		if got := c.r.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if !c.r.Valid() {
			t.Errorf("%v should be Valid", c.r)
		}
	}
	if NoReg.Valid() {
		t.Error("NoReg must not be Valid")
	}
	if NoReg.String() != "-" {
		t.Errorf("NoReg.String() = %q", NoReg.String())
	}
}

func TestRegConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { R(-1) }, func() { R(32) },
		func() { F(-1) }, func() { F(32) },
		func() { P(-1) }, func() { P(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range register")
				}
			}()
			f()
		}()
	}
}

func TestHardwiredRegisters(t *testing.T) {
	if !R(0).IsZero() || R(1).IsZero() {
		t.Error("IsZero must identify exactly r0")
	}
	if !P(0).IsTruePred() || P(1).IsTruePred() {
		t.Error("IsTruePred must identify exactly p0")
	}
}

func TestParseRegRoundTrip(t *testing.T) {
	for i := 0; i < NumIntRegs; i++ {
		roundTripReg(t, R(i))
	}
	for i := 0; i < NumFPRegs; i++ {
		roundTripReg(t, F(i))
	}
	for i := 0; i < NumPredRegs; i++ {
		roundTripReg(t, P(i))
	}
}

func roundTripReg(t *testing.T, r Reg) {
	t.Helper()
	got, err := ParseReg(r.String())
	if err != nil {
		t.Fatalf("ParseReg(%q): %v", r.String(), err)
	}
	if got != r {
		t.Fatalf("ParseReg(%q) = %v, want %v", r.String(), got, r)
	}
}

func TestParseRegErrors(t *testing.T) {
	for _, s := range []string{"", "r", "x3", "r32", "f32", "p8", "r-1", "rx", "q0"} {
		if _, err := ParseReg(s); err == nil {
			t.Errorf("ParseReg(%q): expected error", s)
		}
	}
}

func TestOpMnemonicsRoundTrip(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		got, ok := ParseOp(o.String())
		if !ok {
			t.Errorf("ParseOp(%q) not found", o.String())
			continue
		}
		if got != o {
			t.Errorf("ParseOp(%q) = %v, want %v", o.String(), got, o)
		}
	}
	if _, ok := ParseOp("bogus"); ok {
		t.Error("ParseOp(bogus) should fail")
	}
}

// TestOpOutOfRange: an opcode past the table is named "op<N>" and
// classified as nothing, and classifying it allocates nothing — a
// pipeline classifies all 256 opcode values per lane it builds.
func TestOpOutOfRange(t *testing.T) {
	o := Op(250)
	if got := o.String(); got != "op250" {
		t.Errorf("String = %q, want op250", got)
	}
	if o.Unit() != UnitNone || o.IsCondBranch() || o.IsMem() {
		t.Errorf("out-of-range opcode classified: unit %v, branch %v, mem %v", o.Unit(), o.IsCondBranch(), o.IsMem())
	}
	if n := testing.AllocsPerRun(100, func() { _ = o.Unit() }); n != 0 {
		t.Errorf("Unit allocates %v times per call, want 0", n)
	}
}

func TestOpClassification(t *testing.T) {
	// Every op must have a unit assignment.
	for o := Op(1); o < numOps; o++ {
		if o.Unit() == UnitNone {
			t.Errorf("%v has no unit class", o)
		}
	}
	condBranches := []Op{Beq, Bne, Blt, Bge, Beql, Bnel, Bltl, Bgel, Bp, Bpl}
	for _, o := range condBranches {
		if !o.IsCondBranch() {
			t.Errorf("%v should be a conditional branch", o)
		}
		if !o.IsControl() {
			t.Errorf("%v should be control", o)
		}
		if o.Unit() != UnitBranch {
			t.Errorf("%v should execute on the branch unit", o)
		}
	}
	for _, o := range []Op{Beql, Bnel, Bltl, Bgel, Bpl} {
		if !o.IsLikely() {
			t.Errorf("%v should be likely", o)
		}
	}
	for _, o := range []Op{Beq, Bne, Blt, Bge, Bp, J, Add} {
		if o.IsLikely() {
			t.Errorf("%v should not be likely", o)
		}
	}
	for _, o := range []Op{J, Call, Ret, Switch, Halt} {
		if !o.IsControl() || o.IsCondBranch() {
			t.Errorf("%v: control/branch flags wrong", o)
		}
	}
	if !Lw.IsLoad() || !Lf.IsLoad() || Lw.IsStore() {
		t.Error("load classification wrong")
	}
	if !Sw.IsStore() || !Sf.IsStore() || Sw.IsLoad() {
		t.Error("store classification wrong")
	}
	for _, o := range []Op{Lw, Sw, Lf, Sf} {
		if !o.IsMem() || o.Unit() != UnitLdSt {
			t.Errorf("%v memory classification wrong", o)
		}
	}
	for _, o := range []Op{PEq, PNe, PLt, PGe, PAnd, POr, PNot} {
		if !o.IsPredDef() {
			t.Errorf("%v should be a predicate def", o)
		}
		if o.Unit() != UnitALU {
			t.Errorf("%v should run on the ALU", o)
		}
	}
	if Add.IsPredDef() || Mov.IsPredDef() {
		t.Error("non-predicate op classified as predicate def")
	}
	if Sll.Unit() != UnitShift || Sra.Unit() != UnitShift {
		t.Error("shift ops must use the shifter")
	}
	if FAdd.Unit() != UnitFPAdd || FMul.Unit() != UnitFPMul || FDiv.Unit() != UnitFPDiv {
		t.Error("fp unit classification wrong")
	}
}

func TestLikelyConversions(t *testing.T) {
	pairs := map[Op]Op{Beq: Beql, Bne: Bnel, Blt: Bltl, Bge: Bgel, Bp: Bpl}
	for plain, likely := range pairs {
		got, ok := LikelyOf(plain)
		if !ok || got != likely {
			t.Errorf("LikelyOf(%v) = %v,%v", plain, got, ok)
		}
		back, ok := NonLikelyOf(likely)
		if !ok || back != plain {
			t.Errorf("NonLikelyOf(%v) = %v,%v", likely, back, ok)
		}
	}
	if _, ok := LikelyOf(Beql); ok {
		t.Error("LikelyOf of a likely op should fail")
	}
	if _, ok := NonLikelyOf(Beq); ok {
		t.Error("NonLikelyOf of a plain op should fail")
	}
	if _, ok := LikelyOf(Add); ok {
		t.Error("LikelyOf(Add) should fail")
	}
}

func TestNegate(t *testing.T) {
	pairs := map[Op]Op{Beq: Bne, Blt: Bge, Beql: Bnel, Bltl: Bgel}
	for a, b := range pairs {
		if got, ok := Negate(a); !ok || got != b {
			t.Errorf("Negate(%v) = %v,%v, want %v", a, got, ok, b)
		}
		if got, ok := Negate(b); !ok || got != a {
			t.Errorf("Negate(%v) = %v,%v, want %v", b, got, ok, a)
		}
	}
	if _, ok := Negate(Bp); ok {
		t.Error("Bp has no register-comparison negation")
	}
	if _, ok := Negate(J); ok {
		t.Error("Negate(J) should fail")
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in   Instr
		defs []Reg
		uses []Reg
	}{
		{Instr{Op: Add, Rd: R(3), Rs: R(1), Rt: R(2)}, []Reg{R(3)}, []Reg{R(1), R(2)}},
		{Instr{Op: Add, Rd: R(3), Rs: R(1), Imm: 4}, []Reg{R(3)}, []Reg{R(1)}},
		{Instr{Op: Li, Rd: R(3), Imm: 7}, []Reg{R(3)}, nil},
		{Instr{Op: Mov, Rd: R(6), Rs: R(9)}, []Reg{R(6)}, []Reg{R(9)}},
		{Instr{Op: Mov, Rd: R(6), Rs: R(9), Pred: P(1)}, []Reg{R(6)}, []Reg{R(9), P(1)}},
		{Instr{Op: Lw, Rd: R(4), Rs: R(5), Imm: 8}, []Reg{R(4)}, []Reg{R(5)}},
		{Instr{Op: Sw, Rd: R(4), Rs: R(5), Imm: 8}, nil, []Reg{R(5), R(4)}},
		{Instr{Op: Beq, Rs: R(1), Rt: R(2), Label: "L1"}, nil, []Reg{R(1), R(2)}},
		{Instr{Op: Beq, Rs: R(1), Imm: 0, Label: "L1"}, nil, []Reg{R(1)}},
		{Instr{Op: Bp, Rs: P(2), Label: "L1"}, nil, []Reg{P(2)}},
		{Instr{Op: PEq, Rd: P(1), Rs: R(1), Rt: R(2)}, []Reg{P(1)}, []Reg{R(1), R(2)}},
		{Instr{Op: PAnd, Rd: P(3), Rs: P(1), Rt: P(2)}, []Reg{P(3)}, []Reg{P(1), P(2)}},
		{Instr{Op: PNot, Rd: P(3), Rs: P(1)}, []Reg{P(3)}, []Reg{P(1)}},
		{Instr{Op: Switch, Rs: R(2), Targets: []string{"A", "B"}}, nil, []Reg{R(2)}},
		{Instr{Op: J, Label: "L0"}, nil, nil},
		{Instr{Op: Nop}, nil, nil},
		{Instr{Op: Halt}, nil, nil},
		{Instr{Op: Sf, Rd: F(2), Rs: R(5), Imm: 0}, nil, []Reg{R(5), F(2)}},
		{Instr{Op: Lf, Rd: F(2), Rs: R(5), Imm: 0}, []Reg{F(2)}, []Reg{R(5)}},
	}
	for _, c := range cases {
		if got := c.in.Defs(); !regSliceEq(got, c.defs) {
			t.Errorf("%v: Defs = %v, want %v", c.in.String(), got, c.defs)
		}
		if got := c.in.Uses(); !regSliceEq(got, c.uses) {
			t.Errorf("%v: Uses = %v, want %v", c.in.String(), got, c.uses)
		}
	}
}

func regSliceEq(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Add, Rd: R(3), Rs: R(1), Rt: R(2)}, "add r3, r1, r2"},
		{Instr{Op: Sub, Rd: R(6), Rs: R(3), Imm: 1}, "sub r6, r3, 1"},
		{Instr{Op: Li, Rd: R(1), Imm: -5}, "li r1, -5"},
		{Instr{Op: Lw, Rd: R(4), Rs: R(5), Imm: 8}, "lw r4, 8(r5)"},
		{Instr{Op: Sw, Rd: R(4), Rs: R(5), Imm: -4}, "sw r4, -4(r5)"},
		{Instr{Op: Beq, Rs: R(1), Rt: R(2), Label: "L1"}, "beq r1, r2, L1"},
		{Instr{Op: Bnel, Rs: R(5), Rt: R(6), Label: "L0"}, "bnel r5, r6, L0"},
		{Instr{Op: Bp, Rs: P(1), Label: "L3"}, "bp p1, L3"},
		{Instr{Op: J, Label: "L2"}, "j L2"},
		{Instr{Op: Ret}, "ret"},
		{Instr{Op: Halt}, "halt"},
		{Instr{Op: Nop}, "nop"},
		{Instr{Op: Switch, Rs: R(2), Targets: []string{"A", "B", "C"}}, "switch r2, A, B, C"},
		{Instr{Op: Mov, Rd: R(6), Rs: R(9), Pred: P(1)}, "(p1) mov r6, r9"},
		{Instr{Op: Add, Rd: R(1), Rs: R(1), Imm: 1, Pred: P(2), PredNeg: true}, "(!p2) add r1, r1, 1"},
		{Instr{Op: PEq, Rd: P(1), Rs: R(1), Rt: R(2)}, "peq p1, r1, r2"},
		{Instr{Op: PLt, Rd: P(2), Rs: R(7), Imm: 40}, "plt p2, r7, 40"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestMachineLegal(t *testing.T) {
	legal := []Instr{
		{Op: Add, Rd: R(1), Rs: R(2), Rt: R(3)},
		{Op: Mov, Rd: R(1), Rs: R(2), Pred: P(1)},
		{Op: Mov, Rd: R(1), Rs: R(2), Pred: P(1), PredNeg: true},
	}
	illegal := []Instr{
		{Op: Add, Rd: R(1), Rs: R(2), Rt: R(3), Pred: P(1)},
		{Op: Lw, Rd: R(1), Rs: R(2), Pred: P(2)},
		{Op: Sw, Rd: R(1), Rs: R(2), Pred: P(2), PredNeg: true},
	}
	for _, in := range legal {
		if !in.MachineLegal() {
			t.Errorf("%v should be machine-legal", in.String())
		}
	}
	for _, in := range illegal {
		if in.MachineLegal() {
			t.Errorf("%v should not be machine-legal", in.String())
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := &Instr{Op: Switch, Rs: R(1), Targets: []string{"A", "B"}}
	c := in.Clone()
	c.Targets[0] = "X"
	c.Rs = R(2)
	if in.Targets[0] != "A" || in.Rs != R(1) {
		t.Error("Clone must not share mutable state")
	}
}

// Property: every register constructed by R/F/P survives a
// String→ParseReg round trip unchanged.
func TestQuickRegRoundTrip(t *testing.T) {
	f := func(i uint8, class uint8) bool {
		var r Reg
		switch class % 3 {
		case 0:
			r = R(int(i) % NumIntRegs)
		case 1:
			r = F(int(i) % NumFPRegs)
		default:
			r = P(int(i) % NumPredRegs)
		}
		got, err := ParseReg(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Uses never reports NoReg and always includes the guard
// predicate of a guarded instruction.
func TestQuickUsesWellFormed(t *testing.T) {
	f := func(op uint8, rd, rs, rt uint8, guarded bool) bool {
		in := Instr{
			Op: Op(op % uint8(numOps)),
			Rd: R(int(rd) % NumIntRegs),
			Rs: R(int(rs) % NumIntRegs),
			Rt: R(int(rt) % NumIntRegs),
		}
		if guarded {
			in.Pred = P(1)
		}
		for _, u := range in.Uses() {
			if !u.Valid() {
				return false
			}
		}
		if guarded {
			found := false
			for _, u := range in.Uses() {
				if u == P(1) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		for _, d := range in.Defs() {
			if !d.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
