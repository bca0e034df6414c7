package prog

import (
	"strings"
	"testing"

	"specguard/internal/isa"
)

// progWith wraps one instruction in a minimal valid program so Verify
// exercises only the operand-class checks.
func progWith(in isa.Instr) *Program {
	p := NewProgram()
	f := NewFunc("main")
	b := f.AddBlock("b")
	b.Instrs = []*isa.Instr{&in, {Op: isa.Halt}}
	if in.Op.IsControl() {
		b.Instrs = []*isa.Instr{{Op: isa.J, Label: "b2"}}
		b2 := f.AddBlock("b2")
		b2.Instrs = []*isa.Instr{&in}
		if in.Op.IsCondBranch() || in.Op == isa.Call {
			f.AddBlock("b3").Instrs = []*isa.Instr{{Op: isa.Halt}}
		}
	}
	p.AddFunc(f)
	return p
}

// TestVerifyOperandClasses pins the register-class validation added for
// the static analyzer: predicate registers cannot be data operands,
// data registers cannot be guards or predicate operands, the FP and
// integer files do not mix, and required operands must be present.
func TestVerifyOperandClasses(t *testing.T) {
	cases := []struct {
		name    string
		in      isa.Instr
		wantErr string // "" = must verify clean
	}{
		{
			name:    "pred-as-alu-dest",
			in:      isa.Instr{Op: isa.Add, Rd: isa.P(1), Rs: isa.R(1), Imm: 1},
			wantErr: "rd operand p1 must be a integer register",
		},
		{
			name:    "pred-as-alu-source",
			in:      isa.Instr{Op: isa.Add, Rd: isa.R(2), Rs: isa.P(1), Imm: 1},
			wantErr: "rs operand p1 must be a integer register",
		},
		{
			name:    "int-as-guard",
			in:      isa.Instr{Op: isa.Mov, Rd: isa.R(2), Rs: isa.R(1), Pred: isa.R(3)},
			wantErr: "guard r3 must be a predicate register",
		},
		{
			name:    "int-as-pand-operand",
			in:      isa.Instr{Op: isa.PAnd, Rd: isa.P(1), Rs: isa.P(2), Rt: isa.R(1)},
			wantErr: "rt operand r1 must be a predicate register",
		},
		{
			name:    "fp-into-int-mov",
			in:      isa.Instr{Op: isa.Mov, Rd: isa.R(2), Rs: isa.F(1)},
			wantErr: "rs operand f1 must be a integer register",
		},
		{
			name:    "int-into-fmov",
			in:      isa.Instr{Op: isa.FMov, Rd: isa.F(2), Rs: isa.R(1)},
			wantErr: "rs operand r1 must be a floating-point register",
		},
		{
			name:    "pred-as-load-dest",
			in:      isa.Instr{Op: isa.Lw, Rd: isa.P(1), Rs: isa.R(8)},
			wantErr: "rd operand p1 must be a integer register",
		},
		{
			name:    "fp-as-address-base",
			in:      isa.Instr{Op: isa.Lf, Rd: isa.F(1), Rs: isa.F(2)},
			wantErr: "rs operand f2 must be a integer register",
		},
		{
			name:    "int-as-predicate-compare-dest",
			in:      isa.Instr{Op: isa.PLt, Rd: isa.R(4), Rs: isa.R(1), Imm: 3},
			wantErr: "rd operand r4 must be a predicate register",
		},
		{
			name:    "pred-as-branch-operand",
			in:      isa.Instr{Op: isa.Beq, Rs: isa.P(1), Imm: 0, Label: "b3"},
			wantErr: "rs operand p1 must be a integer register",
		},
		{
			name:    "int-as-bp-operand",
			in:      isa.Instr{Op: isa.Bp, Rs: isa.R(1), Label: "b3"},
			wantErr: "rs operand r1 must be a predicate register",
		},
		{
			name:    "missing-alu-source",
			in:      isa.Instr{Op: isa.Add, Rd: isa.R(2), Imm: 1},
			wantErr: "missing required rs operand",
		},
		{
			name:    "missing-mov-source",
			in:      isa.Instr{Op: isa.Mov, Rd: isa.R(2)},
			wantErr: "missing required rs operand",
		},
		// Legal forms that must keep verifying.
		{name: "alu-imm-form", in: isa.Instr{Op: isa.Add, Rd: isa.R(2), Rs: isa.R(1), Imm: 1}},
		{name: "alu-reg-form", in: isa.Instr{Op: isa.Add, Rd: isa.R(2), Rs: isa.R(1), Rt: isa.R(3)}},
		{name: "pred-compare", in: isa.Instr{Op: isa.PLt, Rd: isa.P(1), Rs: isa.R(1), Imm: 3}},
		{name: "pand", in: isa.Instr{Op: isa.PAnd, Rd: isa.P(3), Rs: isa.P(1), Rt: isa.P(2)}},
		{name: "guarded-cmov", in: isa.Instr{Op: isa.Mov, Rd: isa.R(2), Rs: isa.R(1), Pred: isa.P(1)}},
		{name: "fp-op", in: isa.Instr{Op: isa.FAdd, Rd: isa.F(1), Rs: isa.F(2), Rt: isa.F(3)}},
		{name: "store", in: isa.Instr{Op: isa.Sw, Rd: isa.R(2), Rs: isa.R(8), Imm: 4}},
		{name: "fp-load", in: isa.Instr{Op: isa.Lf, Rd: isa.F(1), Rs: isa.R(8)}},
		{name: "bp", in: isa.Instr{Op: isa.Bp, Rs: isa.P(1), Label: "b3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(progWith(tc.in), VerifyIR)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want clean, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestCheckOperandClassesAllocatesNothing: the operand check of a legal
// instruction allocates nothing, whatever its operand count, since it
// runs on every instruction Predecode, the lowering and the assembler
// verify.
func TestCheckOperandClassesAllocatesNothing(t *testing.T) {
	for _, in := range []isa.Instr{
		{Op: isa.Halt},
		{Op: isa.Li, Rd: isa.R(2), Imm: 7},
		{Op: isa.Lw, Rd: isa.R(2), Rs: isa.R(8), Imm: 4},
		{Op: isa.Add, Rd: isa.R(2), Rs: isa.R(1), Rt: isa.R(3)},
		{Op: isa.PAnd, Rd: isa.P(3), Rs: isa.P(1), Rt: isa.P(2), Pred: isa.P(4)},
	} {
		var err error
		if allocs := testing.AllocsPerRun(100, func() { err = checkOperandClasses(&in) }); allocs != 0 || err != nil {
			t.Errorf("%s: %.0f allocations, err %v; want 0, nil", in.String(), allocs, err)
		}
	}
}
