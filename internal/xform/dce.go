package xform

import (
	"specguard/internal/dep"
	"specguard/internal/isa"
	"specguard/internal/prog"
)

// EliminateDeadCode removes side-effect-free instructions whose results
// are never read — primarily the rename copies that speculation leaves
// behind once forward substitution (or a later redefinition) has made
// them useless. The paper lists this among the peephole optimizations
// renaming couples with ("redundant load-store removal", "possible
// removal of output dependencies").
//
// The pass is liveness-based and function-local: an instruction is
// dead when every register it defines is dead immediately after it.
// Stores, control transfers and guarded instructions whose guard is a
// real predicate are conservatively kept (a guarded def only
// conditionally kills, but a dead dest is dead either way — guarded
// pure ops are removable too). Loads are removable when dead: removing
// a load can only remove a potential fault, never introduce one.
//
// It iterates to a fixed point (removing one dead instruction can kill
// its feeders) and returns the number of instructions removed.
func EliminateDeadCode(f *prog.Func) int {
	removed := 0
	for {
		live := dep.Liveness(f)
		changedThisRound := false
		for _, b := range f.Blocks {
			var kept []*isa.Instr
			liveAfter := live.Out[b]
			// Walk backwards, tracking liveness within the block.
			marks := make([]bool, len(b.Instrs)) // true = keep
			l := liveAfter
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]
				dead := isPure(in)
				if dead {
					var dbuf [1]isa.Reg
					for _, d := range in.AppendDefs(dbuf[:0]) {
						if l.Has(d) {
							dead = false
							break
						}
					}
				}
				if dead {
					marks[i] = false
					// A dead instruction contributes neither kills
					// nor uses to upstream liveness.
					continue
				}
				marks[i] = true
				if !in.Guarded() {
					l = l.Minus(dep.DefsOf(in))
				}
				l = l.Union(dep.UsesOf(in))
			}
			for i, in := range b.Instrs {
				if marks[i] {
					kept = append(kept, in)
				} else {
					removed++
					changedThisRound = true
				}
			}
			b.Instrs = kept
		}
		if !changedThisRound {
			break
		}
	}
	if removed > 0 {
		f.MustRebuildCFG()
	}
	return removed
}

// isPure reports whether removing in (when its defs are dead) is
// observable: stores write memory, control transfers redirect, and
// Nop/Halt have no defs to be dead.
func isPure(in *isa.Instr) bool {
	op := in.Op
	if op.IsControl() || op.IsStore() || op == isa.Nop {
		return false
	}
	if op == isa.Div {
		return false // faulting is observable
	}
	var dbuf [1]isa.Reg
	return len(in.AppendDefs(dbuf[:0])) > 0
}
