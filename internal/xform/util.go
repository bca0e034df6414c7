// Package xform implements the paper's code transformations:
//
//   - Speculate — hoisting instructions above their controlling branch
//     with software renaming, copy insertion and forward substitution
//     (Fig. 1(b)(c));
//   - IfConvert — guarded execution: control dependences become data
//     dependences on a predicate register (Fig. 1(d));
//   - LowerGuards — expansion of fully predicated "fictional"
//     operations into R10000-legal conditional-move sequences;
//   - MakeLikely — tagging highly biased branches as branch-likely;
//   - SplitBranch — the paper's contribution: versioning a conditional
//     region per profile phase, dispatched by an iteration counter and
//     predicate-guarded branch-likely instructions (Figs. 3–5, 7).
package xform

import (
	"fmt"

	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// RegPool hands out registers of one file that a function never
// mentions, for renaming and predicate allocation. The paper's register
// pressure discussion (§3) is real here: when the pool runs dry the
// transforms refuse, and the optimizer falls back.
type RegPool struct {
	free []isa.Reg
}

// mentioned collects every register appearing in f.
func mentioned(f *prog.Func) dep.RegSet {
	var seen dep.RegSet
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			seen = seen.Union(dep.DefsOf(in)).Union(dep.UsesOf(in))
		}
	}
	return seen
}

// NewIntPool returns the unmentioned integer registers of f
// (r0 excluded: it is hardwired zero).
func NewIntPool(f *prog.Func) *RegPool {
	seen := mentioned(f)
	p := &RegPool{}
	for i := 1; i < isa.NumIntRegs; i++ {
		if !seen.Has(isa.R(i)) {
			p.free = append(p.free, isa.R(i))
		}
	}
	return p
}

// NewFPPool returns the unmentioned floating-point registers of f.
func NewFPPool(f *prog.Func) *RegPool {
	seen := mentioned(f)
	p := &RegPool{}
	for i := 0; i < isa.NumFPRegs; i++ {
		if !seen.Has(isa.F(i)) {
			p.free = append(p.free, isa.F(i))
		}
	}
	return p
}

// NewPredPool returns the unmentioned predicate registers of f
// (p0 excluded: it is hardwired true).
func NewPredPool(f *prog.Func) *RegPool {
	seen := mentioned(f)
	p := &RegPool{}
	for i := 1; i < isa.NumPredRegs; i++ {
		if !seen.Has(isa.P(i)) {
			p.free = append(p.free, isa.P(i))
		}
	}
	return p
}

// Get removes and returns a register, or ok=false when exhausted.
func (p *RegPool) Get() (isa.Reg, bool) {
	if len(p.free) == 0 {
		return isa.NoReg, false
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return r, true
}

// Len returns how many registers remain.
func (p *RegPool) Len() int { return len(p.free) }

// Reserve withholds n registers from this pool (they remain unmentioned
// in the function, so a later pass building its own pool — e.g.
// LowerGuards' temporaries — can still claim them).
func (p *RegPool) Reserve(n int) {
	if n >= len(p.free) {
		p.free = p.free[:0]
		return
	}
	p.free = p.free[:len(p.free)-n]
}

// Hammock is a single-branch conditional region: block B ends with a
// conditional branch; Taken and Fall are the two side blocks (either
// may be nil for a triangle) and both reach Join. Side blocks have B as
// their only predecessor and Join as their only successor — the shape
// if-conversion and branch splitting operate on.
type Hammock struct {
	B     *prog.Block
	Taken *prog.Block // nil when the branch jumps straight to Join
	Fall  *prog.Block // nil when the fall-through is Join itself
	Join  *prog.Block
}

// Branch returns the hammock's conditional branch.
func (h *Hammock) Branch() *isa.Instr { return h.B.CondBranch() }

// sideOK verifies a candidate side block: single predecessor (b),
// single successor, and a body free of control flow other than an
// optional terminating jump — no calls, no nested branches, no
// switches. Guarded instructions are allowed: they arise from an inner
// if-conversion, and IfConvert composes their predicates with the
// outer one (nested predication via pand/pnot).
func sideOK(b *prog.Block) bool {
	if len(b.Preds) != 1 || len(b.Succs) != 1 {
		return false
	}
	for i, in := range b.Instrs {
		if in.Op == isa.Div {
			// A division annulled on the false path must not trap;
			// guarding it would still execute it after lowering.
			return false
		}
		if in.Op.IsControl() {
			if in.Op != isa.J || i != len(b.Instrs)-1 {
				return false
			}
		}
	}
	return true
}

// MatchHammock recognizes the hammock rooted at b, or nil if b's shape
// does not qualify.
func MatchHammock(f *prog.Func, b *prog.Block) *Hammock {
	br := b.CondBranch()
	if br == nil || len(b.Succs) != 2 {
		return nil
	}
	taken, fall := b.Succs[0], b.Succs[1]
	if taken == fall {
		return nil
	}
	switch {
	case sideOK(taken) && sideOK(fall) && taken.Succs[0] == fall.Succs[0]:
		// Diamond.
		return &Hammock{B: b, Taken: taken, Fall: fall, Join: taken.Succs[0]}
	case sideOK(fall) && fall.Succs[0] == taken:
		// Triangle: branch skips the fall block.
		return &Hammock{B: b, Fall: fall, Join: taken}
	case sideOK(taken) && taken.Succs[0] == fall:
		// Triangle: branch executes the taken block, else skips it.
		return &Hammock{B: b, Taken: taken, Join: fall}
	}
	return nil
}

// predDefFor returns the predicate-define op matching a conditional
// branch: the predicate is true exactly when the branch would be taken.
func predDefFor(br *isa.Instr, pd isa.Reg) (*isa.Instr, error) {
	var op isa.Op
	switch br.Op {
	case isa.Beq, isa.Beql:
		op = isa.PEq
	case isa.Bne, isa.Bnel:
		op = isa.PNe
	case isa.Blt, isa.Bltl:
		op = isa.PLt
	case isa.Bge, isa.Bgel:
		op = isa.PGe
	default:
		return nil, fmt.Errorf("xform: cannot form predicate for %v", br.Op)
	}
	return &isa.Instr{Op: op, Rd: pd, Rs: br.Rs, Rt: br.Rt, Imm: br.Imm}, nil
}

// removeBlocks deletes blocks from f's layout. The caller guarantees
// nothing references them any more.
func removeBlocks(f *prog.Func, dead ...*prog.Block) {
	isDead := make(map[*prog.Block]bool, len(dead))
	for _, d := range dead {
		isDead[d] = true
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !isDead[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	f.ForgetNames(dead...)
}
