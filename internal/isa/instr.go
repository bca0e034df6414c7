package isa

import "strconv"

// Instr is one instruction. The same value flows through the assembler,
// the compiler passes, the architectural interpreter and the pipeline
// simulator.
//
// Operand conventions (see each Op's comment):
//   - Rd is the destination (integer, FP or predicate register).
//   - Rs, Rt are sources. For three-operand ALU/shift ops, Rt == NoReg
//     selects the immediate form with Imm as the second operand.
//   - Memory ops address Imm(Rs); Lw/Lf write Rd, Sw/Sf read Rd
//     (the value register) — Rd doubles as "rt" in MIPS store syntax.
//   - Branches compare Rs against Rt (or Imm when Rt == NoReg) and
//     transfer to Label; Switch indexes Targets by the value of Rs.
//
// Pred, when valid, guards execution: the instruction issues and occupies
// its functional unit normally, but if the predicate is false (or true,
// when PredNeg is set) its result is annulled — it neither updates
// architectural state nor counts toward IPC (the paper's "excluding
// annulled"). Only Mov may carry a predicate in machine-legal code
// (that is the R10000 conditional move); other guarded ops are
// compiler-internal and must be lowered by xform.LowerGuards.
type Instr struct {
	Op      Op
	Rd      Reg
	Rs      Reg
	Rt      Reg
	Imm     int64
	Label   string   // branch/jump/call target
	Targets []string // Switch targets

	Pred    Reg  // guard predicate; NoReg = unguarded
	PredNeg bool // execute when Pred is false instead of true

	// Speculated marks instructions hoisted above their controlling
	// branch by xform.Speculate; it is bookkeeping for reports and has
	// no execution semantics.
	Speculated bool
}

// HasImmOperand reports whether the second source operand comes from Imm.
func (in *Instr) HasImmOperand() bool {
	switch in.Op.info().format {
	case fmtR3, fmtBr2:
		return in.Rt == NoReg
	case fmtRI, fmtMem:
		return true
	}
	return false
}

// Defs returns the registers written by the instruction.
// Writes to r0 and p0 are architectural no-ops but are still reported
// here; dependence analysis treats them like any other def so that
// transforms never need a special case (the interpreter discards them).
func (in *Instr) Defs() []Reg { return in.AppendDefs(nil) }

// AppendDefs appends the registers written by the instruction to dst
// and returns the extended slice. Callers on hot paths pass a reused
// buffer (an instruction defines at most one register) to stay
// allocation-free.
func (in *Instr) AppendDefs(dst []Reg) []Reg {
	switch in.Op.info().format {
	case fmtR3, fmtR2, fmtRI, fmtP3, fmtP2:
		if in.Op == Nop {
			return dst
		}
		return append(dst, in.Rd)
	case fmtMem:
		if in.Op.IsLoad() {
			return append(dst, in.Rd)
		}
	}
	return dst
}

// Uses returns the registers read by the instruction, including the
// guard predicate and, for stores, the value register.
func (in *Instr) Uses() []Reg { return in.AppendUses(nil) }

// AppendUses appends the registers read by the instruction to dst and
// returns the extended slice. An instruction reads at most three
// registers (two operands plus a guard predicate), so a reused buffer
// of capacity 3 keeps hot-path callers allocation-free.
func (in *Instr) AppendUses(dst []Reg) []Reg {
	switch in.Op.info().format {
	case fmtR3, fmtP3:
		dst = append(dst, in.Rs)
		if in.Rt != NoReg {
			dst = append(dst, in.Rt)
		}
	case fmtR2, fmtP2:
		dst = append(dst, in.Rs)
	case fmtRI:
		// immediate only
	case fmtMem:
		dst = append(dst, in.Rs) // base address
		if in.Op.IsStore() {
			dst = append(dst, in.Rd) // value being stored
		}
	case fmtBr2:
		dst = append(dst, in.Rs)
		if in.Rt != NoReg {
			dst = append(dst, in.Rt)
		}
	case fmtBrP, fmtSwitch:
		dst = append(dst, in.Rs)
	}
	if in.Pred.Valid() {
		dst = append(dst, in.Pred)
	}
	return dst
}

// Guarded reports whether the instruction carries a guard predicate.
func (in *Instr) Guarded() bool { return in.Pred.Valid() }

// MachineLegal reports whether the instruction could be emitted for the
// R10000 target, whose only predicated operations are the integer and
// floating-point conditional moves (MOVZ/MOVN, MOVT.fmt/MOVF.fmt): any
// other guarded op is a compiler-internal "fictional operation" that
// xform.LowerGuards must expand first.
func (in *Instr) MachineLegal() bool {
	return !in.Guarded() || in.Op == Mov || in.Op == FMov
}

// String formats the instruction in the assembler syntax accepted by
// internal/asm, e.g. "add r3, r1, r2", "lw r4, 8(r5)",
// "beq r1, r2, L1", "(p1) mov r6, r9", "(!p2) add r1, r1, 1".
func (in *Instr) String() string {
	var buf [48]byte
	return string(in.AppendText(buf[:0]))
}

// AppendText appends the instruction's assembler text (String's
// rendering) to dst and returns the extended slice. It is the one
// instruction printer: String, the program printers and
// prog.Program.Fingerprint all go through it, and a caller that passes
// a buffer with room for the line allocates nothing.
func (in *Instr) AppendText(dst []byte) []byte {
	if in.Guarded() {
		dst = append(dst, '(')
		if in.PredNeg {
			dst = append(dst, '!')
		}
		dst = in.Pred.appendText(dst)
		dst = append(dst, ") "...)
	}
	dst = in.Op.appendText(dst)
	second := func(dst []byte) []byte {
		if in.Rt != NoReg {
			return in.Rt.appendText(dst)
		}
		return strconv.AppendInt(dst, in.Imm, 10)
	}
	switch in.Op.info().format {
	case fmtNone:
	case fmtR3, fmtP3:
		dst = in.Rd.appendText(append(dst, ' '))
		dst = in.Rs.appendText(append(dst, ", "...))
		dst = second(append(dst, ", "...))
	case fmtR2, fmtP2:
		dst = in.Rd.appendText(append(dst, ' '))
		dst = in.Rs.appendText(append(dst, ", "...))
	case fmtRI:
		dst = in.Rd.appendText(append(dst, ' '))
		dst = strconv.AppendInt(append(dst, ", "...), in.Imm, 10)
	case fmtMem:
		dst = in.Rd.appendText(append(dst, ' '))
		dst = strconv.AppendInt(append(dst, ", "...), in.Imm, 10)
		dst = in.Rs.appendText(append(dst, '('))
		dst = append(dst, ')')
	case fmtBr2:
		dst = in.Rs.appendText(append(dst, ' '))
		dst = second(append(dst, ", "...))
		dst = append(append(dst, ", "...), in.Label...)
	case fmtBrP:
		dst = in.Rs.appendText(append(dst, ' '))
		dst = append(append(dst, ", "...), in.Label...)
	case fmtLbl:
		dst = append(append(dst, ' '), in.Label...)
	case fmtSwitch:
		dst = in.Rs.appendText(append(dst, ' '))
		for _, t := range in.Targets {
			dst = append(append(dst, ", "...), t...)
		}
	}
	return dst
}

// Clone returns a deep copy of the instruction (Targets included).
func (in *Instr) Clone() *Instr {
	c := *in
	if in.Targets != nil {
		c.Targets = append([]string(nil), in.Targets...)
	}
	return &c
}
