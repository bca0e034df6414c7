package interp

import (
	"fmt"
	"math"
	"runtime"

	"specguard/internal/isa"
)

// Memory is the surface workloads write their input through: NewImage
// hands it to an initializer, and both the reference Interp and the
// predecoded Machine implement it.
type Memory interface {
	ReadWord(addr int64) (int64, error)
	WriteWord(addr int64, v int64) error
}

// Machine executes predecoded Code architecturally. It is the fast
// front end: Step fills a caller-owned Event in place (no 100+-byte
// struct return per instruction), dispatches on flat fields instead of
// walking blocks, and emits interned branch-site strings, so a full run
// allocates nothing beyond the call stack's first growth. Semantics —
// including every error message — are bit-identical to Interp; the
// differential fuzzer's front-end oracle pins that.
type Machine struct {
	c    *Code
	opts Options

	r  [isa.NumIntRegs]int64
	f  [isa.NumFPRegs]float64
	pd [isa.NumPredRegs]bool
	image

	pc     int32 // flat index; negative = fell off the end of funcs[^pc]
	stack  []int32
	halted bool
	steps  int64
}

// NewMachine returns a machine positioned at the entry of c.
func (c *Code) NewMachine(opts Options) *Machine {
	if opts.MemBytes == 0 {
		opts.MemBytes = DefaultOptions().MemBytes
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultOptions().MaxSteps
	}
	m := &Machine{
		c:     c,
		opts:  opts,
		image: opts.memory(),
		pc:    c.entry,
	}
	m.pd[0] = true
	return m
}

// Reset rewinds the machine to the entry point with zeroed registers
// and its starting memory (zeros, or its Image's contents), so one
// allocation serves many runs (benchmarks, predictor sweeps).
func (m *Machine) Reset() {
	m.r = [isa.NumIntRegs]int64{}
	m.f = [isa.NumFPRegs]float64{}
	m.pd = [isa.NumPredRegs]bool{}
	m.pd[0] = true
	m.image.reset()
	m.pc = m.c.entry
	m.stack = m.stack[:0]
	m.halted = false
	m.steps = 0
}

// Code returns the predecoded program the machine executes.
func (m *Machine) Code() *Code { return m.c }

// Reg returns integer register r (r0 reads as zero).
func (m *Machine) Reg(r isa.Reg) int64 {
	if r.IsZero() {
		return 0
	}
	return m.r[r.Index()]
}

// SetReg writes integer register r (writes to r0 are discarded).
func (m *Machine) SetReg(r isa.Reg, v int64) {
	if !r.IsZero() {
		m.r[r.Index()] = v
	}
}

// FReg returns floating-point register r.
func (m *Machine) FReg(r isa.Reg) float64 { return m.f[r.Index()] }

// SetFReg writes floating-point register r.
func (m *Machine) SetFReg(r isa.Reg, v float64) { m.f[r.Index()] = v }

// Pred returns predicate register r (p0 reads as true).
func (m *Machine) Pred(r isa.Reg) bool {
	if r.IsTruePred() {
		return true
	}
	return m.pd[r.Index()]
}

// SetPred writes predicate register r (writes to p0 are discarded).
func (m *Machine) SetPred(r isa.Reg, v bool) {
	if !r.IsTruePred() {
		m.pd[r.Index()] = v
	}
}

// Steps returns the number of dynamic instructions executed so far.
func (m *Machine) Steps() int64 { return m.steps }

// Halted reports whether the program has executed Halt.
func (m *Machine) Halted() bool { return m.halted }

// PC returns the current flat instruction index; the trace capturer
// reads it after a Switch to learn which target was chosen.
func (m *Machine) PC() int32 { return m.pc }

// IntRegs returns a snapshot of the integer register file
// (Result.FinalStateR).
func (m *Machine) IntRegs() [isa.NumIntRegs]int64 { return m.r }

// NextInto is Step as an event stream (pipeline.Source): ok=false,
// with a nil error, once the program has halted.
func (m *Machine) NextInto(ev *Event) (ok bool, err error) {
	return streamStep(m.Step(ev))
}

// streamStep maps a Step result onto the event-stream contract:
// ErrHalted is the end of the stream, not an error.
func streamStep(err error) (bool, error) {
	if err == ErrHalted {
		return false, nil
	}
	return err == nil, err
}

// Step executes one instruction, filling *ev with what happened. After
// Halt it returns ErrHalted.
func (m *Machine) Step(ev *Event) error {
	if m.halted {
		return ErrHalted
	}
	if m.steps >= m.opts.MaxSteps {
		return fmt.Errorf("interp: exceeded MaxSteps=%d (infinite loop?)", m.opts.MaxSteps)
	}
	if m.pc < 0 {
		return fmt.Errorf("interp: fell off the end of %s", m.c.funcs[^m.pc].Name)
	}
	in := &m.c.ins[m.pc]
	// Field-by-field reset instead of a whole-struct literal: the
	// literal compiles to a stack temporary plus a ~100-byte copy per
	// event (runtime.duffcopy was a top-five profile entry), where the
	// explicit stores let the compiler write each field once in place.
	// Every field Step (or a previous producer of this reused record)
	// can set is covered, including the leak-tracking ones a plain
	// Machine never writes.
	ev.Fn = in.Fn
	ev.Block = in.Block
	ev.Index = int(in.Index)
	ev.Instr = in.Instr
	ev.Addr = in.Addr
	ev.Flat = m.pc
	ev.Branch = false
	ev.Taken = false
	ev.BranchSite = ""
	ev.Annulled = false
	ev.MemAddr = 0
	ev.IsMem = false
	ev.AddrSecret = false
	ev.WrongPath = nil
	m.steps++

	// Guard evaluation: an annulled instruction advances control flow
	// as a nop.
	if in.Guarded {
		active := m.Pred(in.pred)
		if in.predNeg {
			active = !active
		}
		if !active {
			ev.Annulled = true
			if in.IsMem {
				ev.IsMem = true
			}
			m.pc = in.Next
			return nil
		}
	}

	// op2 resolves lazily like the reference interpreter's closure, but
	// inline: register operand when Rt is present, else the immediate.
	op2 := func() int64 {
		if in.rt != isa.NoReg {
			return m.Reg(in.rt)
		}
		return in.imm
	}

	next := in.Next
	switch in.Op {
	case isa.Nop:
	case isa.Add:
		m.SetReg(in.rd, m.Reg(in.rs)+op2())
	case isa.Sub:
		m.SetReg(in.rd, m.Reg(in.rs)-op2())
	case isa.Mul:
		m.SetReg(in.rd, m.Reg(in.rs)*op2())
	case isa.Div:
		d := op2()
		if d == 0 {
			return fmt.Errorf("interp: division by zero at %s.%s[%d]", in.Fn.Name, in.Block.Name, in.Index)
		}
		m.SetReg(in.rd, m.Reg(in.rs)/d)
	case isa.And:
		m.SetReg(in.rd, m.Reg(in.rs)&op2())
	case isa.Or:
		m.SetReg(in.rd, m.Reg(in.rs)|op2())
	case isa.Xor:
		m.SetReg(in.rd, m.Reg(in.rs)^op2())
	case isa.Nor:
		m.SetReg(in.rd, ^(m.Reg(in.rs) | op2()))
	case isa.Slt:
		if m.Reg(in.rs) < op2() {
			m.SetReg(in.rd, 1)
		} else {
			m.SetReg(in.rd, 0)
		}
	case isa.Li:
		m.SetReg(in.rd, in.imm)
	case isa.Mov:
		m.SetReg(in.rd, m.Reg(in.rs))
	case isa.Sll:
		m.SetReg(in.rd, m.Reg(in.rs)<<uint64(op2()&63))
	case isa.Srl:
		m.SetReg(in.rd, int64(uint64(m.Reg(in.rs))>>uint64(op2()&63)))
	case isa.Sra:
		m.SetReg(in.rd, m.Reg(in.rs)>>uint64(op2()&63))

	case isa.Lw:
		addr := m.Reg(in.rs) + in.imm
		v, err := m.ReadWord(addr)
		if err != nil {
			return err
		}
		m.SetReg(in.rd, v)
		ev.IsMem, ev.MemAddr = true, addr
	case isa.Sw:
		addr := m.Reg(in.rs) + in.imm
		if err := m.WriteWord(addr, m.Reg(in.rd)); err != nil {
			return err
		}
		ev.IsMem, ev.MemAddr = true, addr
	case isa.Lf:
		addr := m.Reg(in.rs) + in.imm
		v, err := m.ReadWord(addr)
		if err != nil {
			return err
		}
		m.SetFReg(in.rd, math.Float64frombits(uint64(v)))
		ev.IsMem, ev.MemAddr = true, addr
	case isa.Sf:
		addr := m.Reg(in.rs) + in.imm
		if err := m.WriteWord(addr, int64(math.Float64bits(m.FReg(in.rd)))); err != nil {
			return err
		}
		ev.IsMem, ev.MemAddr = true, addr

	case isa.FAdd:
		m.SetFReg(in.rd, m.FReg(in.rs)+m.FReg(in.rt))
	case isa.FSub:
		m.SetFReg(in.rd, m.FReg(in.rs)-m.FReg(in.rt))
	case isa.FMul:
		m.SetFReg(in.rd, m.FReg(in.rs)*m.FReg(in.rt))
	case isa.FDiv:
		m.SetFReg(in.rd, m.FReg(in.rs)/m.FReg(in.rt))
	case isa.FMov:
		m.SetFReg(in.rd, m.FReg(in.rs))

	case isa.Beq, isa.Beql:
		next = m.condBranch(ev, in, m.Reg(in.rs) == op2())
	case isa.Bne, isa.Bnel:
		next = m.condBranch(ev, in, m.Reg(in.rs) != op2())
	case isa.Blt, isa.Bltl:
		next = m.condBranch(ev, in, m.Reg(in.rs) < op2())
	case isa.Bge, isa.Bgel:
		next = m.condBranch(ev, in, m.Reg(in.rs) >= op2())
	case isa.Bp, isa.Bpl:
		next = m.condBranch(ev, in, m.Pred(in.rs))

	case isa.J:
		next = in.Target
	case isa.Call:
		m.stack = append(m.stack, in.Next)
		next = in.Target
	case isa.Ret:
		if len(m.stack) == 0 {
			return fmt.Errorf("interp: return from entry function %s", in.Fn.Name)
		}
		next = m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
	case isa.Switch:
		idx := m.Reg(in.rs)
		if idx < 0 || idx >= int64(len(in.Targets)) {
			return fmt.Errorf("interp: switch index %d out of range [0,%d) at %s.%s",
				idx, len(in.Targets), in.Fn.Name, in.Block.Name)
		}
		next = in.Targets[idx]
	case isa.Halt:
		m.halted = true
		next = m.pc

	case isa.PEq:
		m.SetPred(in.rd, m.Reg(in.rs) == op2())
	case isa.PNe:
		m.SetPred(in.rd, m.Reg(in.rs) != op2())
	case isa.PLt:
		m.SetPred(in.rd, m.Reg(in.rs) < op2())
	case isa.PGe:
		m.SetPred(in.rd, m.Reg(in.rs) >= op2())
	case isa.PAnd:
		m.SetPred(in.rd, m.Pred(in.rs) && m.Pred(in.rt))
	case isa.POr:
		m.SetPred(in.rd, m.Pred(in.rs) || m.Pred(in.rt))
	case isa.PNot:
		m.SetPred(in.rd, !m.Pred(in.rs))

	default:
		return fmt.Errorf("interp: unimplemented op %v", in.Op)
	}

	m.pc = next
	return nil
}

// condBranch records the outcome in ev and returns the next flat pc.
func (m *Machine) condBranch(ev *Event, in *FlatInstr, taken bool) int32 {
	ev.Branch = true
	ev.Taken = taken
	ev.BranchSite = m.c.sites[in.Site]
	if taken {
		return in.Target
	}
	return in.Next
}

// yieldEvents spaces a run's yields: an architectural run is a long
// loop that holds its processor, so every 2^16 events it lets other
// goroutines (HTTP handlers, timers) run.
const yieldEvents = 1 << 16

// yield is runtime.Gosched, a variable so tests can count its calls.
var yield = runtime.Gosched

// Run executes the program to completion, invoking visit (if non-nil)
// with a reused Event record for every dynamic instruction, Halt
// included, and yielding every yieldEvents events. The Event pointer is
// only valid during the callback.
func (m *Machine) Run(visit func(*Event)) (Result, error) {
	return runStream(m, m, visit)
}

// runStream is the run loop of Machine.Run and TaintMachine.Run (and so
// of trace.Capture): it drains src, the event stream of machine m,
// counting and visiting every event, and reads the final registers from
// m.
func runStream(src interface{ NextInto(*Event) (bool, error) }, m *Machine, visit func(*Event)) (Result, error) {
	var res Result
	var ev Event
	for {
		ok, err := src.NextInto(&ev)
		if err != nil {
			return res, err
		}
		if !ok {
			res.FinalStateR = m.r
			return res, nil
		}
		if res.DynInstrs++; res.DynInstrs&(yieldEvents-1) == 0 {
			yield()
		}
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
			visit(&ev)
		}
	}
}
