package isa

import "fmt"

// Op identifies an operation. The set mirrors the MIPS-like intermediate
// code of the paper plus the compiler-synthesized predicate operations
// ("fictional operations" in the paper's terms) that full predication
// needs before they are lowered back to conditional moves.
type Op uint8

const (
	Nop Op = iota

	// Integer ALU (latency 1, Table 2 "alu").
	Add // add rd, rs, rt/imm
	Sub // sub rd, rs, rt/imm
	Mul // mul rd, rs, rt/imm (extension; Table 2 omits integer multiply)
	Div // div rd, rs, rt/imm (extension)
	And // and rd, rs, rt/imm
	Or  // or rd, rs, rt/imm
	Xor // xor rd, rs, rt/imm
	Nor // nor rd, rs, rt/imm
	Slt // slt rd, rs, rt/imm — rd = (rs < rt) ? 1 : 0
	Li  // li rd, imm
	Mov // mov rd, rs — with Pred set this is the machine's conditional move

	// Shifter (latency 1, Table 2 "sft").
	Sll // sll rd, rs, rt/imm
	Srl // srl rd, rs, rt/imm
	Sra // sra rd, rs, rt/imm

	// Memory (latency 2 on hit, Table 2 "ld/st"; +6 on a D-cache miss).
	Lw // lw rd, imm(rs)
	Sw // sw rt, imm(rs)
	Lf // lf fd, imm(rs)
	Sf // sf ft, imm(rs)

	// Floating point (latency 3 each, Table 2).
	FAdd // fadd fd, fs, ft
	FSub // fsub fd, fs, ft
	FMul // fmul fd, fs, ft
	FDiv // fdiv fd, fs, ft
	FMov // fmov fd, fs

	// Conditional branches on register pairs (Rt may be NoReg → Imm).
	Beq // beq rs, rt, label
	Bne // bne rs, rt, label
	Blt // blt rs, rt, label
	Bge // bge rs, rt, label

	// Branch-likely variants: always predicted taken, never entered in
	// the BTB, no 2-bit history counter (paper §3).
	Beql
	Bnel
	Bltl
	Bgel

	// Branches on a predicate register (synthesized by branch splitting,
	// Fig. 7: "if (p1 && p2) then branch-likely L1").
	Bp  // bp ps, label — branch if ps is true
	Bpl // bpl ps, label — likely variant

	// Unconditional control flow.
	J      // j label — absolute jump, BTB-predictable
	Call   // call fn — subroutine call; never in the BTB (paper §6)
	Ret    // ret — subroutine return; never in the BTB
	Switch // switch rs, L0, L1, ... — register-relative jump; never in the BTB
	Halt   // halt — terminate the program

	// Predicate definitions (compiler-synthesized; execute on the ALU).
	PEq  // peq pd, rs, rt/imm — pd = (rs == rt)
	PNe  // pne pd, rs, rt/imm
	PLt  // plt pd, rs, rt/imm
	PGe  // pge pd, rs, rt/imm
	PAnd // pand pd, ps, pt
	POr  // por pd, ps, pt
	PNot // pnot pd, ps

	numOps
)

// UnitClass identifies which functional unit executes an operation.
// The R10000 model provides ALU×2, one shifter, one address-calculation
// (load/store) unit and three FP units; branches resolve on ALU1.
type UnitClass uint8

const (
	UnitNone UnitClass = iota
	UnitALU
	UnitShift
	UnitLdSt
	UnitFPAdd
	UnitFPMul
	UnitFPDiv
	UnitBranch

	NumUnitClasses
)

// String returns the unit-class name used in Tables 3–4 of the paper.
func (u UnitClass) String() string {
	switch u {
	case UnitALU:
		return "ALU"
	case UnitShift:
		return "SFT"
	case UnitLdSt:
		return "LDST"
	case UnitFPAdd:
		return "FPADD"
	case UnitFPMul:
		return "FPMUL"
	case UnitFPDiv:
		return "FPDIV"
	case UnitBranch:
		return "BR"
	}
	return "NONE"
}

type opFormat uint8

const (
	fmtNone   opFormat = iota
	fmtR3              // op rd, rs, rt/imm
	fmtR2              // op rd, rs
	fmtRI              // op rd, imm
	fmtMem             // op rd/rt, imm(rs)
	fmtBr2             // op rs, rt/imm, label
	fmtBrP             // op ps, label
	fmtLbl             // op label
	fmtSwitch          // op rs, labels...
	fmtP3              // op pd, ps, pt
	fmtP2              // op pd, ps
)

type opInfo struct {
	name   string
	unit   UnitClass
	format opFormat
	branch bool // conditional branch
	likely bool // branch-likely variant
	load   bool
	store  bool
}

var opTable = [numOps]opInfo{
	Nop:    {name: "nop", unit: UnitALU, format: fmtNone},
	Add:    {name: "add", unit: UnitALU, format: fmtR3},
	Sub:    {name: "sub", unit: UnitALU, format: fmtR3},
	Mul:    {name: "mul", unit: UnitALU, format: fmtR3},
	Div:    {name: "div", unit: UnitALU, format: fmtR3},
	And:    {name: "and", unit: UnitALU, format: fmtR3},
	Or:     {name: "or", unit: UnitALU, format: fmtR3},
	Xor:    {name: "xor", unit: UnitALU, format: fmtR3},
	Nor:    {name: "nor", unit: UnitALU, format: fmtR3},
	Slt:    {name: "slt", unit: UnitALU, format: fmtR3},
	Li:     {name: "li", unit: UnitALU, format: fmtRI},
	Mov:    {name: "mov", unit: UnitALU, format: fmtR2},
	Sll:    {name: "sll", unit: UnitShift, format: fmtR3},
	Srl:    {name: "srl", unit: UnitShift, format: fmtR3},
	Sra:    {name: "sra", unit: UnitShift, format: fmtR3},
	Lw:     {name: "lw", unit: UnitLdSt, format: fmtMem, load: true},
	Sw:     {name: "sw", unit: UnitLdSt, format: fmtMem, store: true},
	Lf:     {name: "lf", unit: UnitLdSt, format: fmtMem, load: true},
	Sf:     {name: "sf", unit: UnitLdSt, format: fmtMem, store: true},
	FAdd:   {name: "fadd", unit: UnitFPAdd, format: fmtR3},
	FSub:   {name: "fsub", unit: UnitFPAdd, format: fmtR3},
	FMul:   {name: "fmul", unit: UnitFPMul, format: fmtR3},
	FDiv:   {name: "fdiv", unit: UnitFPDiv, format: fmtR3},
	FMov:   {name: "fmov", unit: UnitFPAdd, format: fmtR2},
	Beq:    {name: "beq", unit: UnitBranch, format: fmtBr2, branch: true},
	Bne:    {name: "bne", unit: UnitBranch, format: fmtBr2, branch: true},
	Blt:    {name: "blt", unit: UnitBranch, format: fmtBr2, branch: true},
	Bge:    {name: "bge", unit: UnitBranch, format: fmtBr2, branch: true},
	Beql:   {name: "beql", unit: UnitBranch, format: fmtBr2, branch: true, likely: true},
	Bnel:   {name: "bnel", unit: UnitBranch, format: fmtBr2, branch: true, likely: true},
	Bltl:   {name: "bltl", unit: UnitBranch, format: fmtBr2, branch: true, likely: true},
	Bgel:   {name: "bgel", unit: UnitBranch, format: fmtBr2, branch: true, likely: true},
	Bp:     {name: "bp", unit: UnitBranch, format: fmtBrP, branch: true},
	Bpl:    {name: "bpl", unit: UnitBranch, format: fmtBrP, branch: true, likely: true},
	J:      {name: "j", unit: UnitBranch, format: fmtLbl},
	Call:   {name: "call", unit: UnitBranch, format: fmtLbl},
	Ret:    {name: "ret", unit: UnitBranch, format: fmtNone},
	Switch: {name: "switch", unit: UnitBranch, format: fmtSwitch},
	Halt:   {name: "halt", unit: UnitBranch, format: fmtNone},
	PEq:    {name: "peq", unit: UnitALU, format: fmtR3},
	PNe:    {name: "pne", unit: UnitALU, format: fmtR3},
	PLt:    {name: "plt", unit: UnitALU, format: fmtR3},
	PGe:    {name: "pge", unit: UnitALU, format: fmtR3},
	PAnd:   {name: "pand", unit: UnitALU, format: fmtP3},
	POr:    {name: "por", unit: UnitALU, format: fmtP3},
	PNot:   {name: "pnot", unit: UnitALU, format: fmtP2},
}

// info returns o's table entry. An opcode past the table gets the zero
// entry (no unit, no flags) without a name: the classifiers run for
// every opcode value (pipeline.New fills its latency table for all
// 256), so only String pays for formatting one.
func (o Op) info() opInfo {
	if o >= numOps {
		return opInfo{}
	}
	return opTable[o]
}

// String returns the assembler mnemonic for o.
func (o Op) String() string {
	if o >= numOps {
		return fmt.Sprintf("op%d", o)
	}
	return opTable[o].name
}

// Unit returns the functional-unit class that executes o.
func (o Op) Unit() UnitClass { return o.info().unit }

// IsCondBranch reports whether o is a conditional branch (including the
// likely variants and predicate branches).
func (o Op) IsCondBranch() bool { return o.info().branch }

// IsLikely reports whether o is a branch-likely variant.
func (o Op) IsLikely() bool { return o.info().likely }

// LikelyOf returns the branch-likely variant of a conditional branch,
// and ok=false if o has no likely form (or already is one).
func LikelyOf(o Op) (Op, bool) {
	switch o {
	case Beq:
		return Beql, true
	case Bne:
		return Bnel, true
	case Blt:
		return Bltl, true
	case Bge:
		return Bgel, true
	case Bp:
		return Bpl, true
	}
	return o, false
}

// NonLikelyOf returns the plain variant of a branch-likely op,
// and ok=false if o is not a likely branch.
func NonLikelyOf(o Op) (Op, bool) {
	switch o {
	case Beql:
		return Beq, true
	case Bnel:
		return Bne, true
	case Bltl:
		return Blt, true
	case Bgel:
		return Bge, true
	case Bpl:
		return Bp, true
	}
	return o, false
}

// Negate returns the conditional branch testing the opposite condition
// (taken ↔ fall-through swapped). ok=false if o is not negatable.
func Negate(o Op) (Op, bool) {
	switch o {
	case Beq:
		return Bne, true
	case Bne:
		return Beq, true
	case Blt:
		return Bge, true
	case Bge:
		return Blt, true
	case Beql:
		return Bnel, true
	case Bnel:
		return Beql, true
	case Bltl:
		return Bgel, true
	case Bgel:
		return Bltl, true
	}
	return o, false
}

// IsLoad reports whether o reads memory.
func (o Op) IsLoad() bool { return o.info().load }

// IsStore reports whether o writes memory.
func (o Op) IsStore() bool { return o.info().store }

// IsMem reports whether o accesses memory.
func (o Op) IsMem() bool { i := o.info(); return i.load || i.store }

// IsControl reports whether o transfers control (any branch, jump, call,
// return, switch or halt). Control ops may appear only as the last
// instruction of a basic block, except that a conditional branch may be
// followed by nothing (its fall-through is the block's successor).
func (o Op) IsControl() bool {
	switch o {
	case J, Call, Ret, Switch, Halt:
		return true
	}
	return o.info().branch
}

// IsPredDef reports whether o writes a predicate register.
func (o Op) IsPredDef() bool {
	switch o {
	case PEq, PNe, PLt, PGe, PAnd, POr, PNot:
		return true
	}
	return false
}

// ParseOp maps an assembler mnemonic back to its Op.
func ParseOp(name string) (Op, bool) {
	o, ok := opByName[name]
	return o, ok
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for o := Op(0); o < numOps; o++ {
		m[opTable[o].name] = o
	}
	return m
}()
