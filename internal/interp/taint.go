package interp

import (
	"math"

	"specguard/internal/isa"
)

// taintState is the register-file taint image: one bit per register,
// set when the register's value is derived from a secret memory region.
type taintState struct {
	r  uint32
	f  uint32
	pd uint8
}

// regTaint reads the taint bit of r (hardwired r0/p0 are never
// tainted).
func (t *taintState) regTaint(r isa.Reg) bool {
	switch {
	case r.IsInt():
		return !r.IsZero() && t.r&(1<<uint(r.Index())) != 0
	case r.IsFP():
		return t.f&(1<<uint(r.Index())) != 0
	case r.IsPred():
		return !r.IsTruePred() && t.pd&(1<<uint(r.Index())) != 0
	}
	return false
}

// setRegTaint writes the taint bit of r (writes to r0/p0 discarded,
// like the value writes they shadow).
func (t *taintState) setRegTaint(r isa.Reg, v bool) {
	switch {
	case r.IsInt():
		if r.IsZero() {
			return
		}
		if v {
			t.r |= 1 << uint(r.Index())
		} else {
			t.r &^= 1 << uint(r.Index())
		}
	case r.IsFP():
		if v {
			t.f |= 1 << uint(r.Index())
		} else {
			t.f &^= 1 << uint(r.Index())
		}
	case r.IsPred():
		if r.IsTruePred() {
			return
		}
		if v {
			t.pd |= 1 << uint(r.Index())
		} else {
			t.pd &^= 1 << uint(r.Index())
		}
	}
}

// TaintMachine executes predecoded Code like a Machine while shadowing
// every architectural value with a taint bit seeded from the program's
// secret region annotations (prog.Program.Regions). Its event stream is
// the Machine's, extended with the two leak-tracking fields: AddrSecret
// on committed memory accesses and a WrongPath summary on conditional
// branches.
//
// The wrong-path summary exploits a structural fact of this ISA: a
// conditional branch writes no register, memory word or stack entry, so
// the machine state right after the branch event equals the state at
// the branch — and the wrong path is statically the other successor.
// The summary is therefore a deterministic function of the committed
// stream alone, identical for every timing-simulation consumer
// (single-lane or batched) regardless of predictor, which is what makes
// batched and single-lane leak counts agree exactly.
type TaintMachine struct {
	m       *Machine
	horizon int // wrong-path walk bound past each conditional branch

	t      taintState
	shadow []uint64 // one taint bit per 8-byte data word
	any    bool     // false when the program declares no secret region

	wk walker
}

// NewTaintMachine returns a taint-tracking machine at the entry of c,
// with shadow memory seeded from c's program region annotations. Its
// data memory is a Machine's: opts.Image, when set, is its input.
// Taint comes from the region annotations, not from who wrote a word,
// so the input needs no shadow of its own. A program with no secret
// regions yields an ordinary event stream with every leak field zero.
// horizon bounds the wrong-path walk past each conditional branch: it
// must be at least the largest machine.Model.SpecWindow the stream will
// be simulated under, since the pipeline counts a wrong-path access only
// within its window and the walk reports none beyond horizon.
func (c *Code) NewTaintMachine(opts Options, horizon int) *TaintMachine {
	m := c.NewMachine(opts)
	tm := &TaintMachine{
		m:       m,
		horizon: horizon,
		shadow:  make([]uint64, (m.words+63)/64),
	}
	tm.seedShadow()
	return tm
}

// seedShadow marks every word inside a secret region tainted.
func (tm *TaintMachine) seedShadow() {
	for _, r := range tm.m.c.prog.SecretRegions() {
		tm.any = true
		for addr := r.Base; addr < r.End(); addr += 8 {
			tm.setShadow(addr, true)
		}
	}
}

// shadowAt reads the taint bit of the word at addr (out-of-range
// addresses read untainted).
func (tm *TaintMachine) shadowAt(addr int64) bool {
	w := addr / 8
	if addr < 0 || w >= tm.m.words {
		return false
	}
	return tm.shadow[w/64]&(1<<uint(w%64)) != 0
}

// setShadow writes the taint bit of the word at addr.
func (tm *TaintMachine) setShadow(addr int64, v bool) {
	w := addr / 8
	if addr < 0 || w >= tm.m.words {
		return
	}
	if v {
		tm.shadow[w/64] |= 1 << uint(w%64)
	} else {
		tm.shadow[w/64] &^= 1 << uint(w%64)
	}
}

// Code returns the predecoded program.
func (tm *TaintMachine) Code() *Code { return tm.m.c }

// Machine returns the underlying machine, for result inspection.
func (tm *TaintMachine) Machine() *Machine { return tm.m }

// PC returns the current flat pc (trace-capture surface parity).
func (tm *TaintMachine) PC() int32 { return tm.m.PC() }

// Step executes one instruction, propagates taint, and fills the leak
// fields of ev. Event semantics are otherwise bit-identical to
// Machine.Step.
func (tm *TaintMachine) Step(ev *Event) error {
	if err := tm.m.Step(ev); err != nil {
		return err
	}
	ev.AddrSecret = false
	ev.WrongPath = nil
	if !tm.any {
		return nil
	}
	in := &tm.m.c.ins[ev.Flat]
	if ev.Annulled {
		// An annulled instruction neither writes state nor issues its
		// memory access; taint is unchanged.
		return nil
	}
	// Guard contribution (implicit flow): a committed guarded write
	// whose predicate is secret-derived makes the result secret. The
	// guard is part of FlatInstr.Uses, so the generic path below covers
	// it; the memory paths add it explicitly.
	g := in.Guarded && tm.t.regTaint(in.pred)
	switch {
	case in.IsMem:
		addrT := tm.t.regTaint(in.rs)
		ev.AddrSecret = addrT
		switch in.Op {
		case isa.Lw:
			tm.t.setRegTaint(in.rd, tm.shadowAt(ev.MemAddr) || addrT || g)
		case isa.Lf:
			tm.t.setRegTaint(in.rd, tm.shadowAt(ev.MemAddr) || addrT || g)
		case isa.Sw, isa.Sf:
			tm.setShadow(ev.MemAddr, tm.t.regTaint(in.rd) || addrT || g)
		}
	case in.Kind == KindCond:
		ev.WrongPath = tm.wrongPath(ev.Flat, ev.Taken)
	case in.HasDef:
		t := false
		for i := 0; i < int(in.NUses); i++ {
			t = t || tm.t.regTaint(in.Uses[i])
		}
		tm.t.setRegTaint(in.Def, t)
	}
	return nil
}

// NextInto is Step as an event stream (pipeline.Source), like
// Machine.NextInto: the stream a Config.TrackLeaks run consumes.
func (tm *TaintMachine) NextInto(ev *Event) (ok bool, err error) {
	return streamStep(tm.Step(ev))
}

// Run executes to completion like Machine.Run.
func (tm *TaintMachine) Run(visit func(*Event)) (Result, error) {
	return runStream(tm, tm.m, visit)
}

// walker is the reusable wrong-path execution state: private copies of
// the register files, taint image and call stack, plus a store buffer
// so wrong-path stores never touch the committed machine's memory.
type walker struct {
	r      [isa.NumIntRegs]int64
	f      [isa.NumFPRegs]float64
	pd     [isa.NumPredRegs]bool
	t      taintState
	stack  []int32
	stores []bufStore
}

// bufStore is one wrong-path store: value and taint keyed by exact
// address, newest entry wins.
type bufStore struct {
	addr  int64
	bits  int64
	taint bool
}

func (w *walker) reg(r isa.Reg) int64 {
	if r.IsZero() {
		return 0
	}
	return w.r[r.Index()]
}

func (w *walker) setReg(r isa.Reg, v int64) {
	if !r.IsZero() {
		w.r[r.Index()] = v
	}
}

func (w *walker) pred(r isa.Reg) bool {
	if r.IsTruePred() {
		return true
	}
	return w.pd[r.Index()]
}

func (w *walker) setPred(r isa.Reg, v bool) {
	if !r.IsTruePred() {
		w.pd[r.Index()] = v
	}
}

// loadWord resolves a wrong-path load: the youngest buffered store to
// the same address wins, then committed memory, then zero (wrong-path
// faults — out-of-range or unaligned addresses — read as untainted
// zero; the real machine would squash before the fault architecturally
// matters).
func (tm *TaintMachine) loadWord(w *walker, addr int64) (int64, bool) {
	for i := len(w.stores) - 1; i >= 0; i-- {
		if w.stores[i].addr == addr {
			return w.stores[i].bits, w.stores[i].taint
		}
	}
	if !tm.m.valid(addr) {
		return 0, false
	}
	return tm.m.word(addr), tm.shadowAt(addr)
}

// wrongPath executes the not-actually-taken successor of the
// conditional branch at branchFlat for up to horizon instructions and
// returns every secret-indexed memory access encountered (nil when
// there are none — the common case — so the per-branch cost of a quiet
// program is zero allocations).
func (tm *TaintMachine) wrongPath(branchFlat int32, taken bool) []WrongPathAccess {
	m := tm.m
	br := &m.c.ins[branchFlat]
	pc := br.Target
	if taken {
		pc = br.Next
	}

	w := &tm.wk
	w.r, w.f, w.pd, w.t = m.r, m.f, m.pd, tm.t
	w.stack = append(w.stack[:0], m.stack...)
	w.stores = w.stores[:0]

	var out []WrongPathAccess
	for dist := int32(1); dist <= int32(tm.horizon); dist++ {
		if pc < 0 {
			break // fell off the end of a function
		}
		in := &m.c.ins[pc]

		if in.Guarded {
			active := w.pred(in.pred)
			if in.predNeg {
				active = !active
			}
			if !active {
				// Annulled on the wrong path too: consumes a window
				// slot but never issues (this is why a guarded access
				// cannot leak).
				pc = in.Next
				continue
			}
		}

		if in.IsMem && w.t.regTaint(in.rs) {
			out = append(out, WrongPathAccess{Dist: dist, Flat: pc})
		}

		op2 := func() int64 {
			if in.rt != isa.NoReg {
				return w.reg(in.rt)
			}
			return in.imm
		}
		g := in.Guarded && w.t.regTaint(in.pred)
		aluTaint := func() bool {
			t := false
			for i := 0; i < int(in.NUses); i++ {
				t = t || w.t.regTaint(in.Uses[i])
			}
			return t
		}

		next := in.Next
		switch in.Op {
		case isa.Nop:
		case isa.Add:
			w.setReg(in.rd, w.reg(in.rs)+op2())
		case isa.Sub:
			w.setReg(in.rd, w.reg(in.rs)-op2())
		case isa.Mul:
			w.setReg(in.rd, w.reg(in.rs)*op2())
		case isa.Div:
			if d := op2(); d != 0 {
				w.setReg(in.rd, w.reg(in.rs)/d)
			} else {
				w.setReg(in.rd, 0) // wrong-path fault: squashed before it traps
			}
		case isa.And:
			w.setReg(in.rd, w.reg(in.rs)&op2())
		case isa.Or:
			w.setReg(in.rd, w.reg(in.rs)|op2())
		case isa.Xor:
			w.setReg(in.rd, w.reg(in.rs)^op2())
		case isa.Nor:
			w.setReg(in.rd, ^(w.reg(in.rs) | op2()))
		case isa.Slt:
			if w.reg(in.rs) < op2() {
				w.setReg(in.rd, 1)
			} else {
				w.setReg(in.rd, 0)
			}
		case isa.Li:
			w.setReg(in.rd, in.imm)
		case isa.Mov:
			w.setReg(in.rd, w.reg(in.rs))
		case isa.Sll:
			w.setReg(in.rd, w.reg(in.rs)<<uint64(op2()&63))
		case isa.Srl:
			w.setReg(in.rd, int64(uint64(w.reg(in.rs))>>uint64(op2()&63)))
		case isa.Sra:
			w.setReg(in.rd, w.reg(in.rs)>>uint64(op2()&63))

		case isa.Lw:
			addr := w.reg(in.rs) + in.imm
			v, vt := tm.loadWord(w, addr)
			w.setReg(in.rd, v)
			w.t.setRegTaint(in.rd, vt || w.t.regTaint(in.rs) || g)
		case isa.Lf:
			addr := w.reg(in.rs) + in.imm
			v, vt := tm.loadWord(w, addr)
			w.f[in.rd.Index()] = math.Float64frombits(uint64(v))
			w.t.setRegTaint(in.rd, vt || w.t.regTaint(in.rs) || g)
		case isa.Sw:
			w.stores = append(w.stores, bufStore{
				addr:  w.reg(in.rs) + in.imm,
				bits:  w.reg(in.rd),
				taint: w.t.regTaint(in.rd) || w.t.regTaint(in.rs) || g,
			})
		case isa.Sf:
			w.stores = append(w.stores, bufStore{
				addr:  w.reg(in.rs) + in.imm,
				bits:  int64(math.Float64bits(w.f[in.rd.Index()])),
				taint: w.t.regTaint(in.rd) || w.t.regTaint(in.rs) || g,
			})

		case isa.FAdd:
			w.f[in.rd.Index()] = w.f[in.rs.Index()] + w.f[in.rt.Index()]
		case isa.FSub:
			w.f[in.rd.Index()] = w.f[in.rs.Index()] - w.f[in.rt.Index()]
		case isa.FMul:
			w.f[in.rd.Index()] = w.f[in.rs.Index()] * w.f[in.rt.Index()]
		case isa.FDiv:
			w.f[in.rd.Index()] = w.f[in.rs.Index()] / w.f[in.rt.Index()]
		case isa.FMov:
			w.f[in.rd.Index()] = w.f[in.rs.Index()]

		case isa.Beq, isa.Beql:
			next = condTarget(in, w.reg(in.rs) == op2())
		case isa.Bne, isa.Bnel:
			next = condTarget(in, w.reg(in.rs) != op2())
		case isa.Blt, isa.Bltl:
			next = condTarget(in, w.reg(in.rs) < op2())
		case isa.Bge, isa.Bgel:
			next = condTarget(in, w.reg(in.rs) >= op2())
		case isa.Bp, isa.Bpl:
			next = condTarget(in, w.pred(in.rs))

		case isa.J:
			next = in.Target
		case isa.Call:
			w.stack = append(w.stack, in.Next)
			next = in.Target
		case isa.Ret:
			if len(w.stack) == 0 {
				return out
			}
			next = w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
		case isa.Switch:
			idx := w.reg(in.rs)
			if idx < 0 || idx >= int64(len(in.Targets)) {
				return out
			}
			next = in.Targets[idx]
		case isa.Halt:
			return out

		case isa.PEq:
			w.setPred(in.rd, w.reg(in.rs) == op2())
		case isa.PNe:
			w.setPred(in.rd, w.reg(in.rs) != op2())
		case isa.PLt:
			w.setPred(in.rd, w.reg(in.rs) < op2())
		case isa.PGe:
			w.setPred(in.rd, w.reg(in.rs) >= op2())
		case isa.PAnd:
			w.setPred(in.rd, w.pred(in.rs) && w.pred(in.rt))
		case isa.POr:
			w.setPred(in.rd, w.pred(in.rs) || w.pred(in.rt))
		case isa.PNot:
			w.setPred(in.rd, !w.pred(in.rs))
		}

		// Generic taint transfer for register-writing non-memory ops
		// (loads handled above with their value taint).
		if in.HasDef && !in.IsMem {
			w.t.setRegTaint(in.Def, aluTaint())
		}
		pc = next
	}
	return out
}

// condTarget mirrors Machine.condBranch for walker control flow.
func condTarget(in *FlatInstr, taken bool) int32 {
	if taken {
		return in.Target
	}
	return in.Next
}
