// Package dep provides the dependence machinery the scheduler and the
// code-motion transforms are built on: register sets, per-block
// dependence graphs (true/anti/output/memory/control edges) and
// function-level liveness.
package dep

import (
	"strings"

	"specguard/internal/isa"
)

// RegSet is a set over all 72 architectural registers (r0–r31, f0–f31,
// p0–p7), stored as a two-word bitmap. The zero value is the empty set.
type RegSet struct {
	lo, hi uint64
}

func regBit(r isa.Reg) (word int, mask uint64) {
	// Reg encodes r0 as 1 … p7 as 72; bit positions are 0-based.
	pos := uint(r) - 1
	if pos < 64 {
		return 0, 1 << pos
	}
	return 1, 1 << (pos - 64)
}

// Add inserts r (NoReg is ignored).
func (s *RegSet) Add(r isa.Reg) {
	if !r.Valid() {
		return
	}
	w, m := regBit(r)
	if w == 0 {
		s.lo |= m
	} else {
		s.hi |= m
	}
}

// Remove deletes r.
func (s *RegSet) Remove(r isa.Reg) {
	if !r.Valid() {
		return
	}
	w, m := regBit(r)
	if w == 0 {
		s.lo &^= m
	} else {
		s.hi &^= m
	}
}

// Has reports whether r is in the set.
func (s RegSet) Has(r isa.Reg) bool {
	if !r.Valid() {
		return false
	}
	w, m := regBit(r)
	if w == 0 {
		return s.lo&m != 0
	}
	return s.hi&m != 0
}

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return RegSet{s.lo | t.lo, s.hi | t.hi} }

// Minus returns s − t.
func (s RegSet) Minus(t RegSet) RegSet { return RegSet{s.lo &^ t.lo, s.hi &^ t.hi} }

// Intersects reports whether s ∩ t is non-empty.
func (s RegSet) Intersects(t RegSet) bool { return s.lo&t.lo != 0 || s.hi&t.hi != 0 }

// Empty reports whether the set has no members.
func (s RegSet) Empty() bool { return s.lo == 0 && s.hi == 0 }

// Equal reports set equality.
func (s RegSet) Equal(t RegSet) bool { return s == t }

// Regs returns the members in encoding order.
func (s RegSet) Regs() []isa.Reg {
	var out []isa.Reg
	for i := 0; i < isa.NumIntRegs; i++ {
		if s.Has(isa.R(i)) {
			out = append(out, isa.R(i))
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		if s.Has(isa.F(i)) {
			out = append(out, isa.F(i))
		}
	}
	for i := 0; i < isa.NumPredRegs; i++ {
		if s.Has(isa.P(i)) {
			out = append(out, isa.P(i))
		}
	}
	return out
}

// String renders the set like "{r1 r4 p2}".
func (s RegSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Regs() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}

// DefsOf returns the set of registers written by in.
func DefsOf(in *isa.Instr) RegSet {
	var buf [1]isa.Reg // an instruction defines at most one register
	var s RegSet
	for _, r := range in.AppendDefs(buf[:0]) {
		s.Add(r)
	}
	return s
}

// UsesOf returns the set of registers read by in (guard included).
func UsesOf(in *isa.Instr) RegSet {
	var buf [3]isa.Reg // two operands plus a guard predicate
	var s RegSet
	for _, r := range in.AppendUses(buf[:0]) {
		s.Add(r)
	}
	return s
}
