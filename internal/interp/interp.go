package interp

import (
	"errors"
	"fmt"
	"math"

	"specguard/internal/isa"
	"specguard/internal/prog"
)

// Options configures an interpreter.
type Options struct {
	// MemBytes is the size of data memory; accesses are 8-byte words
	// and must be aligned. Defaults to 1 MiB.
	MemBytes int64
	// MaxSteps bounds execution as a runaway-loop backstop.
	// Defaults to 200 million dynamic instructions.
	MaxSteps int64
	// Image, when set, is the initial data memory: the run starts from
	// its pages copy-on-write (see Image), and memory is the Image's
	// size, whatever MemBytes says.
	Image *Image
}

// DefaultOptions are the settings used by the experiment harness.
func DefaultOptions() Options {
	return Options{MemBytes: 1 << 20, MaxSteps: 200_000_000}
}

// Event describes one committed dynamic instruction. The pipeline
// simulator and the profiler are both driven from this record.
type Event struct {
	Fn    *prog.Func
	Block *prog.Block
	Index int // instruction position within Block
	Instr *isa.Instr
	Addr  uint64 // code address (from Layout)
	// Flat is the instruction's index in the predecoded Code of its
	// producer (Machine, TaintMachine, trace replay): Code.Flat(Flat)
	// is Instr, and the timing model's decode window rejects an event
	// for which it is not. The tree-walking interpreter leaves it
	// meaningless, which is why Interp does not feed the timing model.
	Flat int32

	// Branch outcome, meaningful when Instr is a conditional branch.
	Branch     bool
	Taken      bool
	BranchSite string // prog.BranchSiteID of the branch

	// Annulled is set when a guarded instruction's predicate
	// evaluated false: the instruction executed (and in the pipeline
	// occupies a functional unit) but its result was discarded.
	Annulled bool

	// MemAddr is the effective byte address for loads and stores.
	MemAddr int64
	IsMem   bool

	// Leak-tracking fields, populated only by a TaintMachine source
	// (nil/false otherwise, including on every trace replay).
	//
	// AddrSecret marks a committed memory access whose address register
	// held a secret-tainted value (false for annulled accesses: an
	// annulled guarded access never issues to memory).
	AddrSecret bool
	// WrongPath, set on mispredictable conditional branches, summarizes
	// the secret-indexed accesses the machine would execute on the
	// not-taken-in-reality path — the statically known wrong path — so
	// the timing simulator can count exactly the ones inside its
	// speculative window when this branch mispredicts. Nil when the
	// wrong path touches no secret-indexed access (the common case).
	WrongPath []WrongPathAccess
}

// SameArch reports whether ev and o are the same architectural event:
// every field but the leak-tracking ones (AddrSecret, WrongPath), which
// only a TaintMachine populates and whose slice makes whole-struct
// comparison illegal. The front ends that must agree event for event
// (Interp, Machine, trace replay) are compared with it.
func (ev *Event) SameArch(o *Event) bool {
	return ev.Fn == o.Fn && ev.Block == o.Block && ev.Index == o.Index &&
		ev.Instr == o.Instr && ev.Addr == o.Addr && ev.Flat == o.Flat &&
		ev.Branch == o.Branch && ev.Taken == o.Taken && ev.BranchSite == o.BranchSite &&
		ev.Annulled == o.Annulled && ev.MemAddr == o.MemAddr && ev.IsMem == o.IsMem
}

// WrongPathAccess is one secret-indexed memory access on the wrong path
// of a conditional branch.
type WrongPathAccess struct {
	// Dist is the 1-based dynamic instruction distance past the branch
	// (annulled wrong-path instructions count toward distance but are
	// never recorded themselves).
	Dist int32
	// Flat is the flat-code index of the access (Code.Flat).
	Flat int32
}

// ErrHalted is returned by Step once the program has executed Halt.
var ErrHalted = errors.New("interp: program halted")

// frame is a call-stack entry: where Ret resumes.
type frame struct {
	fn    *prog.Func
	block int // index of the block to resume at (layout successor)
}

// Interp executes one program architecturally.
type Interp struct {
	p      *prog.Program
	layout *Layout
	opts   Options

	r  [isa.NumIntRegs]int64
	f  [isa.NumFPRegs]float64
	pd [isa.NumPredRegs]bool
	image

	fn     *prog.Func
	block  int // index into fn.Blocks
	index  int // index into block.Instrs
	stack  []frame
	halted bool
	steps  int64
}

// New creates an interpreter positioned at the entry of p. The program
// must verify in IR mode (guarded "fictional" ops execute fine here).
func New(p *prog.Program, layout *Layout, opts Options) (*Interp, error) {
	if err := prog.Verify(p, prog.VerifyIR); err != nil {
		return nil, err
	}
	if opts.MemBytes == 0 {
		opts.MemBytes = DefaultOptions().MemBytes
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultOptions().MaxSteps
	}
	if layout == nil {
		layout = NewLayout(p)
	}
	m := &Interp{
		p:      p,
		layout: layout,
		opts:   opts,
		image:  opts.memory(),
		fn:     p.EntryFunc(),
	}
	m.pd[0] = true
	return m, nil
}

// Reg returns integer register r (r0 reads as zero).
func (m *Interp) Reg(r isa.Reg) int64 {
	if r.IsZero() {
		return 0
	}
	return m.r[r.Index()]
}

// SetReg writes integer register r (writes to r0 are discarded).
func (m *Interp) SetReg(r isa.Reg, v int64) {
	if !r.IsZero() {
		m.r[r.Index()] = v
	}
}

// FReg returns floating-point register r.
func (m *Interp) FReg(r isa.Reg) float64 { return m.f[r.Index()] }

// SetFReg writes floating-point register r.
func (m *Interp) SetFReg(r isa.Reg, v float64) { m.f[r.Index()] = v }

// Pred returns predicate register r (p0 reads as true).
func (m *Interp) Pred(r isa.Reg) bool {
	if r.IsTruePred() {
		return true
	}
	return m.pd[r.Index()]
}

// SetPred writes predicate register r (writes to p0 are discarded).
func (m *Interp) SetPred(r isa.Reg, v bool) {
	if !r.IsTruePred() {
		m.pd[r.Index()] = v
	}
}

// Steps returns the number of dynamic instructions executed so far.
func (m *Interp) Steps() int64 { return m.steps }

// Halted reports whether the program has executed Halt.
func (m *Interp) Halted() bool { return m.halted }

// Step executes one instruction and reports what happened. After Halt
// it returns ErrHalted.
func (m *Interp) Step() (Event, error) {
	if m.halted {
		return Event{}, ErrHalted
	}
	if m.steps >= m.opts.MaxSteps {
		return Event{}, fmt.Errorf("interp: exceeded MaxSteps=%d (infinite loop?)", m.opts.MaxSteps)
	}
	// Skip empty blocks (legal after transforms delete instructions).
	for m.index >= len(m.fn.Blocks[m.block].Instrs) {
		if m.block+1 >= len(m.fn.Blocks) {
			return Event{}, fmt.Errorf("interp: fell off the end of %s", m.fn.Name)
		}
		m.block++
		m.index = 0
	}

	blk := m.fn.Blocks[m.block]
	in := blk.Instrs[m.index]
	ev := Event{
		Fn:    m.fn,
		Block: blk,
		Index: m.index,
		Instr: in,
		Addr:  m.layout.Addr(in),
	}
	m.steps++

	// Guard evaluation: an annulled instruction advances control flow
	// as a nop (guarded branches are compiler-internal and never
	// emitted, but annul them safely anyway).
	if in.Guarded() {
		active := m.Pred(in.Pred)
		if in.PredNeg {
			active = !active
		}
		if !active {
			ev.Annulled = true
			if in.Op.IsMem() {
				ev.IsMem = true
			}
			m.index++
			return ev, nil
		}
	}

	op2 := func() int64 {
		if in.Rt != isa.NoReg {
			return m.Reg(in.Rt)
		}
		return in.Imm
	}

	advance := true
	switch in.Op {
	case isa.Nop:
	case isa.Add:
		m.SetReg(in.Rd, m.Reg(in.Rs)+op2())
	case isa.Sub:
		m.SetReg(in.Rd, m.Reg(in.Rs)-op2())
	case isa.Mul:
		m.SetReg(in.Rd, m.Reg(in.Rs)*op2())
	case isa.Div:
		d := op2()
		if d == 0 {
			return ev, fmt.Errorf("interp: division by zero at %s.%s[%d]", m.fn.Name, blk.Name, m.index)
		}
		m.SetReg(in.Rd, m.Reg(in.Rs)/d)
	case isa.And:
		m.SetReg(in.Rd, m.Reg(in.Rs)&op2())
	case isa.Or:
		m.SetReg(in.Rd, m.Reg(in.Rs)|op2())
	case isa.Xor:
		m.SetReg(in.Rd, m.Reg(in.Rs)^op2())
	case isa.Nor:
		m.SetReg(in.Rd, ^(m.Reg(in.Rs) | op2()))
	case isa.Slt:
		if m.Reg(in.Rs) < op2() {
			m.SetReg(in.Rd, 1)
		} else {
			m.SetReg(in.Rd, 0)
		}
	case isa.Li:
		m.SetReg(in.Rd, in.Imm)
	case isa.Mov:
		m.SetReg(in.Rd, m.Reg(in.Rs))
	case isa.Sll:
		m.SetReg(in.Rd, m.Reg(in.Rs)<<uint64(op2()&63))
	case isa.Srl:
		m.SetReg(in.Rd, int64(uint64(m.Reg(in.Rs))>>uint64(op2()&63)))
	case isa.Sra:
		m.SetReg(in.Rd, m.Reg(in.Rs)>>uint64(op2()&63))

	case isa.Lw:
		addr := m.Reg(in.Rs) + in.Imm
		v, err := m.ReadWord(addr)
		if err != nil {
			return ev, err
		}
		m.SetReg(in.Rd, v)
		ev.IsMem, ev.MemAddr = true, addr
	case isa.Sw:
		addr := m.Reg(in.Rs) + in.Imm
		if err := m.WriteWord(addr, m.Reg(in.Rd)); err != nil {
			return ev, err
		}
		ev.IsMem, ev.MemAddr = true, addr
	case isa.Lf:
		addr := m.Reg(in.Rs) + in.Imm
		v, err := m.ReadWord(addr)
		if err != nil {
			return ev, err
		}
		m.SetFReg(in.Rd, math.Float64frombits(uint64(v)))
		ev.IsMem, ev.MemAddr = true, addr
	case isa.Sf:
		addr := m.Reg(in.Rs) + in.Imm
		if err := m.WriteWord(addr, int64(math.Float64bits(m.FReg(in.Rd)))); err != nil {
			return ev, err
		}
		ev.IsMem, ev.MemAddr = true, addr

	case isa.FAdd:
		m.SetFReg(in.Rd, m.FReg(in.Rs)+m.FReg(in.Rt))
	case isa.FSub:
		m.SetFReg(in.Rd, m.FReg(in.Rs)-m.FReg(in.Rt))
	case isa.FMul:
		m.SetFReg(in.Rd, m.FReg(in.Rs)*m.FReg(in.Rt))
	case isa.FDiv:
		m.SetFReg(in.Rd, m.FReg(in.Rs)/m.FReg(in.Rt))
	case isa.FMov:
		m.SetFReg(in.Rd, m.FReg(in.Rs))

	case isa.Beq, isa.Beql:
		m.condBranch(&ev, in, m.Reg(in.Rs) == op2())
		advance = false
	case isa.Bne, isa.Bnel:
		m.condBranch(&ev, in, m.Reg(in.Rs) != op2())
		advance = false
	case isa.Blt, isa.Bltl:
		m.condBranch(&ev, in, m.Reg(in.Rs) < op2())
		advance = false
	case isa.Bge, isa.Bgel:
		m.condBranch(&ev, in, m.Reg(in.Rs) >= op2())
		advance = false
	case isa.Bp, isa.Bpl:
		m.condBranch(&ev, in, m.Pred(in.Rs))
		advance = false

	case isa.J:
		m.jumpTo(in.Label)
		advance = false
	case isa.Call:
		callee := m.p.Func(in.Label)
		m.stack = append(m.stack, frame{fn: m.fn, block: m.block + 1})
		m.fn = callee
		m.block, m.index = 0, 0
		advance = false
	case isa.Ret:
		if len(m.stack) == 0 {
			return ev, fmt.Errorf("interp: return from entry function %s", m.fn.Name)
		}
		fr := m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		m.fn, m.block, m.index = fr.fn, fr.block, 0
		advance = false
	case isa.Switch:
		idx := m.Reg(in.Rs)
		if idx < 0 || idx >= int64(len(in.Targets)) {
			return ev, fmt.Errorf("interp: switch index %d out of range [0,%d) at %s.%s",
				idx, len(in.Targets), m.fn.Name, blk.Name)
		}
		m.jumpTo(in.Targets[idx])
		advance = false
	case isa.Halt:
		m.halted = true
		advance = false

	case isa.PEq:
		m.SetPred(in.Rd, m.Reg(in.Rs) == op2())
	case isa.PNe:
		m.SetPred(in.Rd, m.Reg(in.Rs) != op2())
	case isa.PLt:
		m.SetPred(in.Rd, m.Reg(in.Rs) < op2())
	case isa.PGe:
		m.SetPred(in.Rd, m.Reg(in.Rs) >= op2())
	case isa.PAnd:
		m.SetPred(in.Rd, m.Pred(in.Rs) && m.Pred(in.Rt))
	case isa.POr:
		m.SetPred(in.Rd, m.Pred(in.Rs) || m.Pred(in.Rt))
	case isa.PNot:
		m.SetPred(in.Rd, !m.Pred(in.Rs))

	default:
		return ev, fmt.Errorf("interp: unimplemented op %v", in.Op)
	}

	if advance {
		m.index++
	}
	return ev, nil
}

// condBranch records the outcome and redirects control.
func (m *Interp) condBranch(ev *Event, in *isa.Instr, taken bool) {
	ev.Branch = true
	ev.Taken = taken
	ev.BranchSite = prog.BranchSiteID(m.fn, ev.Block)
	if taken {
		m.jumpTo(in.Label)
	} else {
		m.block++
		m.index = 0
	}
}

func (m *Interp) jumpTo(label string) {
	for i, b := range m.fn.Blocks {
		if b.Name == label {
			m.block, m.index = i, 0
			return
		}
	}
	panic(fmt.Sprintf("interp: jump to unknown block %q (verified program)", label))
}

// Result summarizes a completed run.
type Result struct {
	DynInstrs   int64 // committed dynamic instructions, annulled included
	Annulled    int64
	Branches    int64 // conditional branches executed
	TakenCount  int64
	MemOps      int64
	FinalStateR [isa.NumIntRegs]int64
}

// Run executes the program to completion, invoking visit (if non-nil)
// for every dynamic instruction.
func (m *Interp) Run(visit func(Event)) (Result, error) {
	var res Result
	for {
		ev, err := m.Step()
		if err == ErrHalted || m.halted && err == nil {
			if err == nil {
				// Count the Halt event itself.
				res.DynInstrs++
				if visit != nil {
					visit(ev)
				}
			}
			res.FinalStateR = m.r
			return res, nil
		}
		if err != nil {
			return res, err
		}
		res.DynInstrs++
		if ev.Annulled {
			res.Annulled++
		}
		if ev.Branch {
			res.Branches++
			if ev.Taken {
				res.TakenCount++
			}
		}
		if ev.IsMem {
			res.MemOps++
		}
		if visit != nil {
			visit(ev)
		}
	}
}
