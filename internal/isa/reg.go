// Package isa defines the MIPS-like instruction set used throughout
// specguard: operations, registers, functional-unit classes and the
// Instr value that the assembler, the compiler passes, the interpreter
// and the pipeline simulator all share.
//
// The ISA mirrors the paper's "MIPS-like intermediate code": a
// three-operand register machine with separate integer and floating-point
// register files, a small predicate register file used for guarded
// execution, branch-likely variants of every conditional branch, and a
// Switch pseudo-instruction standing in for register-relative jumps
// (which the paper notes can never be registered in the BTB).
package isa

import (
	"fmt"
	"strconv"
)

// Reg names a register in one of three files: integer r0–r31,
// floating-point f0–f31, or predicate p0–p7. The zero value is NoReg,
// meaning "no operand": an instruction whose Pred field is NoReg is
// unguarded, and an ALU op whose Rt is NoReg takes its second operand
// from Imm.
//
// r0 is hardwired to zero and p0 is hardwired to true; writes to either
// are discarded, exactly as on MIPS.
type Reg uint8

// NoReg is the absent-operand sentinel (the Reg zero value).
const NoReg Reg = 0

const (
	intBase  Reg = 1  // r0 encodes as 1
	fpBase   Reg = 33 // f0 encodes as 33
	predBase Reg = 65 // p0 encodes as 65
	regEnd   Reg = 73
)

// Register-file sizes, fixed by the R10000 model in the paper:
// 32 architectural integer and FP registers visible to the program
// (a further 32 physical registers per file exist only inside the
// pipeline's renamer), and 8 predicate registers synthesized by the
// compiler.
const (
	NumIntRegs  = 32
	NumFPRegs   = 32
	NumPredRegs = 8
)

// R returns the integer register ri. It panics if i is out of range;
// register numbers are compile-time constants in every caller, so an
// out-of-range index is a programming error, not an input error.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa.R(%d): integer register out of range", i))
	}
	return intBase + Reg(i)
}

// F returns the floating-point register fi.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa.F(%d): fp register out of range", i))
	}
	return fpBase + Reg(i)
}

// P returns the predicate register pi.
func P(i int) Reg {
	if i < 0 || i >= NumPredRegs {
		panic(fmt.Sprintf("isa.P(%d): predicate register out of range", i))
	}
	return predBase + Reg(i)
}

// IsInt reports whether r is an integer register.
func (r Reg) IsInt() bool { return r >= intBase && r < intBase+NumIntRegs }

// IsFP reports whether r is a floating-point register.
func (r Reg) IsFP() bool { return r >= fpBase && r < fpBase+NumFPRegs }

// IsPred reports whether r is a predicate register.
func (r Reg) IsPred() bool { return r >= predBase && r < predBase+NumPredRegs }

// Valid reports whether r names an actual register (not NoReg).
func (r Reg) Valid() bool { return r >= intBase && r < regEnd }

// Index returns the position of r within its register file
// (e.g. 5 for r5, 5 for f5). It panics on NoReg.
func (r Reg) Index() int {
	switch {
	case r.IsInt():
		return int(r - intBase)
	case r.IsFP():
		return int(r - fpBase)
	case r.IsPred():
		return int(r - predBase)
	}
	panic("isa: Index of NoReg")
}

// IsZero reports whether r is the hardwired integer zero register r0.
func (r Reg) IsZero() bool { return r == intBase }

// IsTruePred reports whether r is the hardwired always-true predicate p0.
func (r Reg) IsTruePred() bool { return r == predBase }

// String formats r in assembly syntax: "r4", "f2", "p1", or "-" for NoReg.
func (r Reg) String() string {
	var buf [4]byte
	return string(r.appendText(buf[:0]))
}

// appendText appends r's assembly syntax (String's rendering) to dst.
func (r Reg) appendText(dst []byte) []byte {
	switch {
	case r.IsInt():
		dst = append(dst, 'r')
	case r.IsFP():
		dst = append(dst, 'f')
	case r.IsPred():
		dst = append(dst, 'p')
	default:
		return append(dst, '-')
	}
	return strconv.AppendInt(dst, int64(r.Index()), 10)
}

// ParseReg parses assembly register syntax ("r12", "f3", "p1").
func ParseReg(s string) (Reg, error) {
	if len(s) < 2 {
		return NoReg, fmt.Errorf("isa: bad register %q", s)
	}
	var n int
	if _, err := fmt.Sscanf(s[1:], "%d", &n); err != nil {
		return NoReg, fmt.Errorf("isa: bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n < 0 || n >= NumIntRegs {
			return NoReg, fmt.Errorf("isa: integer register %q out of range", s)
		}
		return R(n), nil
	case 'f':
		if n < 0 || n >= NumFPRegs {
			return NoReg, fmt.Errorf("isa: fp register %q out of range", s)
		}
		return F(n), nil
	case 'p':
		if n < 0 || n >= NumPredRegs {
			return NoReg, fmt.Errorf("isa: predicate register %q out of range", s)
		}
		return P(n), nil
	}
	return NoReg, fmt.Errorf("isa: bad register %q", s)
}
