package prog

import (
	"fmt"

	"specguard/internal/isa"
)

// VerifyMode selects how strict Verify is.
type VerifyMode int

const (
	// VerifyIR accepts compiler-internal forms, including fully
	// predicated ("fictional") operations.
	VerifyIR VerifyMode = iota
	// VerifyMachine additionally requires every instruction to be
	// emittable for the R10000 target: the only guarded operation
	// allowed is the conditional move (see isa.Instr.MachineLegal).
	VerifyMachine
)

// Verify checks structural well-formedness of the program:
//
//   - the entry function exists and is non-empty;
//   - control-transfer instructions appear only as block terminators;
//   - every branch/jump label resolves to a block in the same function,
//     every call label resolves to a function, and Switch has at least
//     one target;
//   - the final block of each function ends in an unconditional
//     transfer (no falling off the end of a function);
//   - every register operand is of the class its slot requires (a
//     predicate register cannot be a data operand, a data register
//     cannot be a guard or a predicate operand, FP and integer files
//     do not mix) and required operands are present;
//   - under VerifyMachine, every instruction is machine-legal.
//
// Unreachable blocks are deliberately not an error here: transforms
// create them transiently (and DCE removes them), so the static
// analyzer reports them as a lint warning instead.
//
// It returns the first violation found.
func Verify(p *Program, mode VerifyMode) error {
	if p.EntryFunc() == nil {
		return fmt.Errorf("prog: entry function %q not defined", p.Entry)
	}
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("prog: function %q has no blocks", f.Name)
		}
		for bi, b := range f.Blocks {
			for ii, in := range b.Instrs {
				last := ii == len(b.Instrs)-1
				if in.Op.IsControl() && !last {
					return fmt.Errorf("prog: %s.%s[%d]: control instruction %q not at block end",
						f.Name, b.Name, ii, in.String())
				}
				if mode == VerifyMachine && !in.MachineLegal() {
					return fmt.Errorf("prog: %s.%s[%d]: %q is not machine-legal (guarded non-move)",
						f.Name, b.Name, ii, in.String())
				}
				if err := checkOperandClasses(in); err != nil {
					return fmt.Errorf("prog: %s.%s[%d]: %q: %v",
						f.Name, b.Name, ii, in.String(), err)
				}
				switch {
				case in.Op.IsCondBranch() || in.Op == isa.J:
					if f.Block(in.Label) == nil {
						return fmt.Errorf("prog: %s.%s[%d]: unknown target %q",
							f.Name, b.Name, ii, in.Label)
					}
				case in.Op == isa.Call:
					if p.Func(in.Label) == nil {
						return fmt.Errorf("prog: %s.%s[%d]: call to unknown function %q",
							f.Name, b.Name, ii, in.Label)
					}
				case in.Op == isa.Switch:
					if len(in.Targets) == 0 {
						return fmt.Errorf("prog: %s.%s[%d]: switch with no targets", f.Name, b.Name, ii)
					}
					for _, lbl := range in.Targets {
						if f.Block(lbl) == nil {
							return fmt.Errorf("prog: %s.%s[%d]: unknown switch target %q",
								f.Name, b.Name, ii, lbl)
						}
					}
				}
			}
			if bi == len(f.Blocks)-1 {
				t := b.Terminator()
				if t == nil || t.Op.IsCondBranch() || t.Op == isa.Call {
					return fmt.Errorf("prog: %s.%s: final block may fall off the end of the function",
						f.Name, b.Name)
				}
			}
		}
	}
	return nil
}

// regClass is an operand-slot requirement.
type regClass int

const (
	clsInt regClass = iota
	clsFP
	clsPred
)

func (c regClass) String() string {
	switch c {
	case clsFP:
		return "floating-point"
	case clsPred:
		return "predicate"
	}
	return "integer"
}

func (c regClass) matches(r isa.Reg) bool {
	switch c {
	case clsFP:
		return r.IsFP()
	case clsPred:
		return r.IsPred()
	}
	return r.IsInt()
}

// checkOperandClasses validates that every register operand of in is
// present where required and drawn from the register file its slot
// demands. The assembler cannot produce most violations (it parses
// registers by file prefix into the right slots), but transforms build
// isa.Instr values directly — a pass that, say, writes a predicate
// register into an ALU destination would otherwise sail through into
// the interpreter, where the encoding aliases another file's state.
func checkOperandClasses(in *isa.Instr) error {
	type slot struct {
		name     string
		reg      isa.Reg
		cls      regClass
		optional bool // NoReg allowed (immediate form)
	}
	// At most rd, rs and rt: a stack array, since every program that is
	// predecoded, lowered or assembled is verified instruction by
	// instruction.
	var slots [3]slot
	n := 0
	add := func(s slot) { slots[n] = s; n++ }
	rd := func(c regClass) { add(slot{"rd", in.Rd, c, false}) }
	rs := func(c regClass) { add(slot{"rs", in.Rs, c, false}) }
	rt := func(c regClass, opt bool) { add(slot{"rt", in.Rt, c, opt}) }

	switch in.Op {
	case isa.Nop, isa.J, isa.Call, isa.Ret, isa.Halt:
		// No register operands.
	case isa.Li:
		rd(clsInt)
	case isa.Mov:
		rd(clsInt)
		rs(clsInt)
	case isa.FMov:
		rd(clsFP)
		rs(clsFP)
	case isa.Add, isa.Sub, isa.Mul, isa.Div, isa.And, isa.Or, isa.Xor, isa.Nor,
		isa.Slt, isa.Sll, isa.Srl, isa.Sra:
		rd(clsInt)
		rs(clsInt)
		rt(clsInt, true)
	case isa.FAdd, isa.FSub, isa.FMul, isa.FDiv:
		rd(clsFP)
		rs(clsFP)
		rt(clsFP, true)
	case isa.Lw, isa.Sw:
		rd(clsInt)
		rs(clsInt)
	case isa.Lf, isa.Sf:
		rd(clsFP)
		rs(clsInt)
	case isa.Beq, isa.Bne, isa.Blt, isa.Bge, isa.Beql, isa.Bnel, isa.Bltl, isa.Bgel:
		rs(clsInt)
		rt(clsInt, true)
	case isa.Bp, isa.Bpl:
		rs(clsPred)
	case isa.Switch:
		rs(clsInt)
	case isa.PEq, isa.PNe, isa.PLt, isa.PGe:
		rd(clsPred)
		rs(clsInt)
		rt(clsInt, true)
	case isa.PAnd, isa.POr:
		rd(clsPred)
		rs(clsPred)
		rt(clsPred, false)
	case isa.PNot:
		rd(clsPred)
		rs(clsPred)
	}

	for _, s := range slots[:n] {
		if s.reg == isa.NoReg {
			if s.optional {
				continue
			}
			return fmt.Errorf("missing required %s operand", s.name)
		}
		if !s.cls.matches(s.reg) {
			return fmt.Errorf("%s operand %s must be a %s register", s.name, s.reg, s.cls)
		}
	}
	if in.Pred != isa.NoReg && !in.Pred.IsPred() {
		return fmt.Errorf("guard %s must be a predicate register", in.Pred)
	}
	return nil
}
